package cluster_test

import (
	"io"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// restoreFeed is the kill-restore campaign, with the flags one
// uninterrupted whole-feed pipeline raises over it (the worker's check
// cadence, 3, is part of the state a snapshot must carry).
func restoreFeed(t *testing.T) ([]osn.Event, detector.Rule, []osn.AccountID) {
	t.Helper()
	pop := agents.NewPopulation(17, agents.DefaultParams())
	pop.Bootstrap(800)
	pop.LaunchSybils(15, 30*sim.TicksPerHour)
	pop.RunFor(120 * sim.TicksPerHour)
	events := pop.Net.Events()
	rule := detector.Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}
	ref := detector.NewPipeline(rule, nil, detector.WithGraphReconstruction(), detector.WithCheckEvery(3))
	ref.Ingest(detector.Batch{Events: events})
	ref.Close()
	if ref.FlaggedCount() == 0 {
		t.Fatal("reference pipeline flagged nothing; equality test is vacuous")
	}
	return events, rule, sorted(ref.FlaggedIDs())
}

func sorted(ids []osn.AccountID) []osn.AccountID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// heldSnapshot returns the sequence of the snapshot srv holds for key
// (part, parts), 0 when it holds none.
func heldSnapshot(srv *stream.Server, part, parts int) uint64 {
	for _, sn := range srv.Stats().Snapshots {
		if sn.Part == part && sn.Parts == parts {
			return sn.Seq
		}
	}
	return 0
}

// killMidFeed runs the first third of events through a whole-feed
// worker on srv that keeps its state at the broker, and kills it there,
// with progress past its newest confirmed offer in memory. It returns
// the worker's configuration (for the replacement) and the sequence of
// the snapshot the broker holds.
func killMidFeed(t *testing.T, srv *stream.Server, events []osn.Event, rule detector.Rule) (cluster.Config, uint64) {
	t.Helper()
	// One offer lands in [n/4, n/3): the kill at n/3 leaves a replay
	// gap the restart must cover.
	cfg := cluster.WithSaveEvery(cluster.Config{Addr: srv.Addr(), Rule: rule, CheckEvery: 3,
		Handoff: true, Every: time.Hour}, uint64(len(events)/4))
	w, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	killAt := uint64(len(events) / 3)
	for _, ev := range events[:killAt] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	waitSeq(t, w, killAt)
	w.Kill()
	if err := w.Wait(); err == nil {
		t.Fatal("killed worker reported a clean end of feed")
	}
	held := heldSnapshot(srv, 0, 1)
	if held == 0 || held >= killAt {
		t.Fatalf("the broker's snapshot covers seq %d, killed worker had applied %d — no replay gap to prove recovery on", held, killAt)
	}
	return cfg, held
}

// restart starts the killed worker's replacement and checks that it
// adopted the broker's snapshot.
func restart(t *testing.T, cfg cluster.Config, held uint64) *cluster.Worker {
	t.Helper()
	w, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("restart from the snapshot at %d: %v", held, err)
	}
	if w.ResumedFrom() != held+1 || !strings.HasPrefix(w.Origin(), "adopted broker snapshot") {
		t.Fatalf("replacement resumed from %d (%q), want %d from the broker's snapshot", w.ResumedFrom(), w.Origin(), held+1)
	}
	return w
}

// finish ends the feed and checks the replacement applied all of it
// and flagged exactly the reference set.
func finish(t *testing.T, srv *stream.Server, w *cluster.Worker, events []osn.Event, want []osn.AccountID) {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatalf("replacement: %v", err)
	}
	if got := w.Pipeline().Seq(); got != uint64(len(events)) {
		t.Fatalf("replacement stopped at seq %d, feed ended at %d", got, len(events))
	}
	st := w.Stats()
	// Each event past the starting state applied exactly once.
	if applied := uint64(len(events)) - (max(w.ResumedFrom(), 1) - 1); uint64(st.Events) != applied {
		t.Fatalf("worker applied %d events, want %d", st.Events, applied)
	}
	if got := sorted(w.Pipeline().FlaggedIDs()); !reflect.DeepEqual(got, want) {
		t.Fatalf("flag divergence across kill/restore:\n got %v\nwant %v", got, want)
	}
}

// TestKillRestoreFlagEquality: a worker keeping its state at the broker
// is killed mid-feed with unoffered progress in memory. Everything it
// held in RAM is discarded; only the broker's snapshot and the feed's
// replay window survive, as after kill -9. A replacement adopts the
// snapshot, resumes the feed from the sequence it covers, and must
// finish with the flag set of one uninterrupted run.
func TestKillRestoreFlagEquality(t *testing.T) {
	events, rule, want := restoreFeed(t)
	srv, err := stream.NewServer("127.0.0.1:0", stream.WithReplayBuffer(len(events)+16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg, held := killMidFeed(t, srv, events, rule)
	w := restart(t, cfg, held)
	for _, ev := range events[len(events)/3:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	finish(t, srv, w, events, want)
}

// TestColdRestartFromStaleCheckpointViaSpool is the same cycle against
// the feed's disk tier: the in-memory replay window is 64 events, and
// the feed runs to its end before the replacement starts, so the whole
// replay gap — thousands of events behind the head — must be served
// from spool segments. Recovery must be invisible in the verdicts and
// lose nothing.
func TestColdRestartFromStaleCheckpointViaSpool(t *testing.T) {
	events, rule, want := restoreFeed(t)
	const window = 64
	sp, err := spool.Open(t.TempDir(), spool.WithSegmentBytes(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	srv, err := stream.NewServer("127.0.0.1:0", stream.WithReplayBuffer(window), stream.WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg, held := killMidFeed(t, srv, events, rule)
	for _, ev := range events[len(events)/3:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	deadline := time.Now().Add(15 * time.Second)
	for sp.End() < uint64(len(events)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sp.End() != uint64(len(events)) {
		t.Fatalf("spool holds %d events, want %d — producer stalled", sp.End(), len(events))
	}
	if gap := uint64(len(events)) - held; gap <= window {
		t.Fatalf("replay gap is only %d events (≤ window %d); nothing would prove the disk tier", gap, window)
	}
	w := restart(t, cfg, held)
	finish(t, srv, w, events, want)
	if ev := srv.Stats().Evicted; ev != 0 {
		t.Fatalf("evicted = %d, want 0 — the disk tier must make this scenario lossless", ev)
	}
}

// blipProxy forwards TCP connections to a broker until cut severs them
// all: a network blip between a worker and its feed. While refuse is
// set it closes every connection it accepts, counting them in refused.
type blipProxy struct {
	ln      net.Listener
	mu      sync.Mutex
	conns   []net.Conn
	refuse  atomic.Bool
	refused atomic.Int32
}

func newBlipProxy(t *testing.T, target string) *blipProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &blipProxy{ln: ln}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			if p.refuse.Load() {
				in.Close()
				p.refused.Add(1)
				continue
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			go func() { io.Copy(out, in); out.Close() }()
			go func() { io.Copy(in, out); in.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close(); p.cut() })
	return p
}

func (p *blipProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestWorkerResumesAcrossBlip: a network blip mid-feed costs a worker
// that keeps its state at the broker nothing. It reconnects by itself
// and resumes its session from its newest confirmed offer — an older
// one here, since the broker is unreachable during the blip and the
// pre-resume offer fails — and skips the replayed events it already
// applied. The flag set equals one uninterrupted run's.
func TestWorkerResumesAcrossBlip(t *testing.T) {
	events, rule, want := restoreFeed(t)
	srv, err := stream.NewServer("127.0.0.1:0", stream.WithReplayBuffer(len(events)+16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newBlipProxy(t, srv.Addr())
	cfg := cluster.WithSaveEvery(cluster.Config{Addr: proxy.ln.Addr().String(), Rule: rule, CheckEvery: 3, Retries: 5,
		Handoff: true, Every: time.Hour}, uint64(len(events)/4))
	w, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blipAt := uint64(len(events) / 3)
	for _, ev := range events[:blipAt] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	waitSeq(t, w, blipAt)
	if held := w.OfferedSeq(); held == 0 || held >= blipAt {
		t.Fatalf("offer confirmed at seq %d before the blip at %d: no replay to skip", held, blipAt)
	}
	proxy.refuse.Store(true)
	proxy.cut()
	for _, ev := range events[blipAt:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	// The pre-resume offer and the first redial are refused; then the
	// blip ends.
	waitFor(t, func() bool { return proxy.refused.Load() >= 2 }, "the pre-resume offer and a redial to be refused")
	proxy.refuse.Store(false)
	waitSeq(t, w, uint64(len(events)))
	finish(t, srv, w, events, want)
}

// TestRefusedOfferNotRetriedEveryBatch: while the broker refuses
// offers (here a proxy that turns away every new connection, as a
// closing broker does), a refused save is retried at the next save
// point, not at every batch: each attempt costs a whole snapshot.
func TestRefusedOfferNotRetriedEveryBatch(t *testing.T) {
	events, rule, _ := restoreFeed(t)
	srv, err := stream.NewServer("127.0.0.1:0", stream.WithReplayBuffer(len(events)+16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newBlipProxy(t, srv.Addr())
	const every = 500
	w, err := cluster.Start(cluster.WithSaveEvery(cluster.Config{Addr: proxy.ln.Addr().String(), Rule: rule, CheckEvery: 3,
		Handoff: true, Every: time.Hour}, every))
	if err != nil {
		t.Fatal(err)
	}
	proxy.refuse.Store(true)
	for _, ev := range events {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	waitSeq(t, w, uint64(len(events)))
	if got, most := int(proxy.refused.Load()), len(events)/every; got == 0 || got > most {
		t.Fatalf("%d offers refused over %d one-event batches, want 1 to %d: one per save point", got, len(events), most)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestKillSavesNothing: Kill is a crash, so a save the worker is in the
// middle of when Kill lands must keep nothing — no broker offer. Every
// batch saves here, and the worker kills itself from its flag hook,
// inside the batch whose save would otherwise follow: afterwards the
// broker's held offer must predate that batch.
func TestKillSavesNothing(t *testing.T) {
	events, rule, _ := restoreFeed(t)
	const part, parts = 0, 2
	// firstFlag is the feed sequence of the event on which the partition
	// raises its first flag; the killing batch holds it.
	var firstFlag, cur uint64
	ref := detector.NewPipeline(rule, nil, detector.WithGraphReconstruction(),
		detector.WithPartition(part, parts), detector.WithCheckEvery(1),
		detector.WithFlagHook(func(detector.Flag) {
			if firstFlag == 0 {
				firstFlag = cur
			}
		}))
	for i, ev := range events {
		if cur = uint64(i + 1); osn.PartitionDelivers(ev, part, parts) {
			ref.Ingest(detector.Batch{Events: []osn.Event{ev}, LastSeq: cur})
		}
	}
	ref.Close()
	if firstFlag == 0 {
		t.Fatalf("partition %d/%d never flags; the test is vacuous", part, parts)
	}

	srv := clusterServer(t)
	var self atomic.Pointer[cluster.Worker]
	cfg := cluster.Config{Addr: srv.Addr(), Part: part, Parts: parts, Rule: rule, CheckEvery: 1,
		Handoff: true, Every: time.Nanosecond,
		OnFlag: func(detector.Flag) { self.Load().Kill() }}
	w, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	self.Store(w)
	for off := 0; off < len(events); off += 64 {
		srv.BroadcastBatch(events[off:min(off+64, len(events))])
	}
	if err := w.Wait(); err == nil {
		t.Fatal("killed worker reported a clean end of feed")
	}
	if w.Stats().Offers == 0 {
		t.Fatal("the worker saved nothing before the kill; the test is vacuous")
	}
	if held := heldSnapshot(srv, part, parts); held >= firstFlag {
		t.Fatalf("broker holds an offer at seq %d covering the killing batch (first flag at seq %d)", held, firstFlag)
	}
}
