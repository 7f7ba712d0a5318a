package cluster_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
	"sybilwild/internal/features"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// campaign caches one simulated Sybil campaign and its fitted rule:
// both the equality test and the benchmark replay the same feed, and
// the simulation dominates setup cost.
var campaign struct {
	once   sync.Once
	events []osn.Event
	rule   detector.Rule
}

func campaignFeed() ([]osn.Event, detector.Rule) {
	campaign.once.Do(func() {
		pop := agents.NewPopulation(61, agents.DefaultParams())
		pop.Bootstrap(1500)
		pop.LaunchSybils(25, 50*sim.TicksPerHour)
		pop.RunFor(200 * sim.TicksPerHour)
		campaign.events = pop.Net.Events()
		campaign.rule = detector.FitRule(
			features.Labelled(pop.Net, pop.Sybils, pop.Normals), detector.PaperRule())
	})
	return campaign.events, campaign.rule
}

// genesis returns the length of the feed's prefix of bootstrap
// friendships (osn.EvFriendship), which precedes the observation window.
func genesis(events []osn.Event) int {
	n := 0
	for n < len(events) && events[n].Type == osn.EvFriendship {
		n++
	}
	return n
}

// clusterServer builds a spool-backed broker: the spool retains the
// whole feed, so a replacement worker can backfill any resume point
// regardless of the in-memory window.
func clusterServer(t *testing.T) *stream.Server {
	t.Helper()
	sp, err := spool.Open(t.TempDir(), spool.WithSegmentBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	srv, err := stream.NewServer("127.0.0.1:0",
		stream.WithReplayBuffer(4096), stream.WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// saveEvery spaces the test workers' saves: an offer every saveEvery
// feed sequences, about 40 over the campaign.
const saveEvery = 1000

// workerConfig is the tests' worker for partition part of parts on
// addr: its state kept at the broker (Handoff), saves every saveEvery
// feed sequences only (the interval is out of reach), so they land at
// feed positions rather than wall-clock times.
func workerConfig(addr string, part, parts int, rule detector.Rule) cluster.Config {
	return cluster.WithSaveEvery(cluster.Config{
		Addr: addr, Part: part, Parts: parts, Rule: rule, CheckEvery: 1,
		Handoff: true, Every: time.Hour,
	}, saveEvery)
}

// waitSeq blocks until w's pipeline has applied the feed through seq.
// A partitioned worker's cursor may trail a foreign tail, so only a
// whole-feed worker can wait for the feed's head this way.
func waitSeq(t *testing.T, w *cluster.Worker, seq uint64) {
	t.Helper()
	waitFor(t, func() bool { return w.Pipeline().Seq() >= seq }, "worker to apply seq %d", seq)
}

// waitOffered blocks until w has offered the broker a snapshot past seq.
func waitOffered(t *testing.T, w *cluster.Worker, seq uint64) {
	t.Helper()
	waitFor(t, func() bool { return w.OfferedSeq() > seq }, "worker to offer a snapshot past seq %d", seq)
}

func waitFor(t *testing.T, done func() bool, what string, args ...any) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for "+what, args...)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// singleRunFlags is the referee: the accounts one uninterrupted
// unpartitioned pipeline flags over events.
func singleRunFlags(t *testing.T, events []osn.Event, rule detector.Rule) map[osn.AccountID]bool {
	t.Helper()
	single := detector.NewPipeline(rule, nil, detector.WithGraphReconstruction())
	single.Ingest(detector.Batch{Events: events})
	single.Close()
	want := make(map[osn.AccountID]bool)
	for _, id := range single.FlaggedIDs() {
		want[id] = true
	}
	if len(want) == 0 {
		t.Fatal("single pipeline flagged nothing; equivalence test is vacuous")
	}
	return want
}

// checkUnion waits for a K-worker cluster to end cleanly at the feed's
// last sequence and checks that its flags, each raised by the
// account's owner alone, are exactly want.
func checkUnion(t *testing.T, workers []*cluster.Worker, last uint64, want map[osn.AccountID]bool) {
	t.Helper()
	k := len(workers)
	union := make(map[osn.AccountID]int)
	for part, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d/%d: %v", part, k, err)
		}
		if got := w.Pipeline().Seq(); got != last {
			t.Fatalf("worker %d/%d stopped at seq %d, feed ended at %d", part, k, got, last)
		}
		for _, id := range w.Pipeline().FlaggedIDs() {
			if osn.Partition(id, k) != part {
				t.Fatalf("worker %d/%d flagged account %d owned by partition %d",
					part, k, id, osn.Partition(id, k))
			}
			union[id]++
		}
	}
	for id, n := range union {
		if n != 1 {
			t.Fatalf("account %d flagged by %d workers", id, n)
		}
		if !want[id] {
			t.Fatalf("cluster flagged %d, single run did not", id)
		}
	}
	if len(union) != len(want) {
		t.Fatalf("cluster flagged %d accounts, single run flagged %d", len(union), len(want))
	}
}

// TestPartitionedClusterFlagEquality is the PR's acceptance test: for
// K in {2, 3, 5}, K workers each subscribing to one partition of a
// broker feed must jointly flag exactly the accounts a single
// unpartitioned pipeline flags over the same event log — with one
// worker killed mid-campaign and replaced via broker snapshot handoff,
// and with the replacement applying no event at or below its
// snapshot's stamped sequence (zero spool replay into adopted state).
func TestPartitionedClusterFlagEquality(t *testing.T) {
	events, rule := campaignFeed()

	want := singleRunFlags(t, events, rule)

	for _, k := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			srv := clusterServer(t)
			workers := make([]*cluster.Worker, k)
			start := func(part int) (*cluster.Worker, error) {
				return cluster.Start(workerConfig(srv.Addr(), part, k, rule))
			}
			for part := 0; part < k; part++ {
				w, err := start(part)
				if err != nil {
					t.Fatalf("start worker %d/%d: %v", part, k, err)
				}
				workers[part] = w
			}

			// First leg of the campaign, then wait for the victim to
			// have parked at least one snapshot at the broker.
			cut := 2 * len(events) / 5
			for _, ev := range events[:cut] {
				srv.BroadcastBatch([]osn.Event{ev})
			}
			victim := workers[0]
			waitOffered(t, victim, 0)

			// Crash the victim and adopt its partition on a fresh
			// worker from the broker's snapshot.
			victim.Kill()
			if err := victim.Wait(); err == nil {
				t.Fatal("killed worker reported a clean end of feed")
			}
			repl, err := start(0) // the broker's offer is the state
			if err != nil {
				t.Fatalf("start replacement: %v", err)
			}
			workers[0] = repl
			if repl.HandoffSeq() == 0 {
				t.Fatal("replacement cold-started despite an offered snapshot")
			}
			if repl.HandoffSeq() < victim.OfferedSeq() {
				t.Fatalf("replacement adopted seq %d, victim had offered %d",
					repl.HandoffSeq(), victim.OfferedSeq())
			}
			if repl.ResumedFrom() != repl.HandoffSeq()+1 {
				t.Fatalf("replacement resumed from %d, want snapshot seq %d + 1",
					repl.ResumedFrom(), repl.HandoffSeq())
			}

			// Rest of the campaign, clean shutdown, then the union check.
			for _, ev := range events[cut:] {
				srv.BroadcastBatch([]osn.Event{ev})
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("broker close: %v", err)
			}
			checkUnion(t, workers, uint64(len(events)), want)
			if first := repl.FirstApplied(); first <= repl.HandoffSeq() {
				t.Fatalf("replacement replayed seq %d at or below its snapshot cut %d",
					first, repl.HandoffSeq())
			}
		})
	}
}

// started is the outcome of a Start run in the background.
type started struct {
	w   *cluster.Worker
	err error
}

// startAsync runs Start in the background: a second worker for a key
// that a first one holds waits in it until the key is free.
func startAsync(cfg cluster.Config) <-chan started {
	ch := make(chan started, 1)
	go func() {
		w, err := cluster.Start(cfg)
		ch <- started{w, err}
	}()
	return ch
}

// waitAdopted blocks until a relay edge's broker has adopted the feed
// through seq.
func waitAdopted(t *testing.T, e *stream.Relay, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for e.Server().HeadSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("edge head stuck at %d, want %d", e.Server().HeadSeq(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRelayTreeFlagEquality is the relay tier's acceptance test: a
// K=4 worker cluster subscribed through a 2-level tree (root broker,
// two spooled edge relays, two workers each) must flag exactly the
// accounts a single direct pipeline flags — with one edge broker
// killed -9 mid-campaign and replaced on the same spool directory.
// The replacement edge resumes the upstream subscription from its
// spool's end and loads the snapshots its predecessor confirmed from
// beside the spool. Both replacement workers adopt them in the
// handshake on the restarted edge; neither replays from sequence 1,
// and the tree reconverges with no gaps and no duplicate flags.
func TestRelayTreeFlagEquality(t *testing.T) {
	events, rule := campaignFeed()

	want := singleRunFlags(t, events, rule)

	const k = 4
	root := clusterServer(t)
	newEdge := func(dir string) (*stream.Relay, *spool.Spool) {
		t.Helper()
		sp, err := spool.Open(dir, spool.WithSegmentBytes(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		e, err := stream.NewRelay("127.0.0.1:0", root.Addr(),
			stream.WithRelayServer(stream.WithReplayBuffer(4096), stream.WithSpool(sp)))
		if err != nil {
			sp.Close()
			t.Fatal(err)
		}
		return e, sp
	}
	edgeA, spA := newEdge(t.TempDir())
	defer func() { edgeA.Close(); spA.Close() }()
	dirB := t.TempDir()
	edgeB, spB := newEdge(dirB)

	start := func(part int, addr string) *cluster.Worker {
		t.Helper()
		cfg := workerConfig(addr, part, k, rule)
		cfg.FromStart = true
		w, err := cluster.Start(cfg)
		if err != nil {
			t.Fatalf("start worker %d/%d on %s: %v", part, k, addr, err)
		}
		return w
	}
	workers := make([]*cluster.Worker, k)
	for part := 0; part < k; part++ {
		addr := edgeA.Addr()
		if part >= k/2 {
			addr = edgeB.Addr()
		}
		workers[part] = start(part, addr)
	}

	// First leg of the campaign; both edges adopt it fully, and edge
	// B's workers have snapshots confirmed there, before the kill. The
	// crash loses only in-memory state (sessions, unspooled frames),
	// exactly like kill -9 of a streamd -relay process.
	cut := 2 * len(events) / 5
	for _, ev := range events[:cut] {
		root.BroadcastBatch([]osn.Event{ev})
	}
	waitAdopted(t, edgeB, uint64(cut))
	for part := k / 2; part < k; part++ {
		waitOffered(t, workers[part], 0)
	}

	edgeB.Abort()
	if err := spB.Close(); err != nil {
		t.Fatal(err)
	}
	for part := k / 2; part < k; part++ {
		if err := workers[part].Wait(); err == nil {
			t.Fatalf("worker %d survived its edge's kill -9 with a clean end of feed", part)
		}
	}

	// Replacement edge on the same spool directory, new address: it
	// resumes upstream from the spool's end and still holds the
	// snapshots the dead edge confirmed, which the replacement workers
	// adopt at start.
	edgeB2, spB2 := newEdge(dirB)
	defer func() { edgeB2.Close(); spB2.Close() }()
	adopted := func(part int) {
		t.Helper()
		if w := workers[part]; w.HandoffSeq() == 0 || w.ResumedFrom() != w.HandoffSeq()+1 {
			t.Fatalf("worker %d on the restarted edge adopted seq %d and resumed from %d; want the dead edge's confirmed snapshot, resumed right after it",
				part, w.HandoffSeq(), w.ResumedFrom())
		}
	}
	for part := k / 2; part < k; part++ {
		workers[part] = start(part, edgeB2.Addr())
		adopted(part)
	}

	// Rest of the campaign, clean shutdown down the tree, union check.
	for _, ev := range events[cut:] {
		root.BroadcastBatch([]osn.Event{ev})
	}
	if err := root.Close(); err != nil {
		t.Fatalf("root close: %v", err)
	}
	if err := edgeA.Wait(); err != nil {
		t.Fatalf("edge A did not propagate eof cleanly: %v", err)
	}
	if err := edgeB2.Wait(); err != nil {
		t.Fatalf("replacement edge did not propagate eof cleanly: %v", err)
	}
	checkUnion(t, workers, uint64(len(events)), want)
	for part := k / 2; part < k; part++ {
		if first := workers[part].FirstApplied(); first <= workers[part].HandoffSeq() {
			t.Fatalf("worker %d replayed seq %d at or below its snapshot cut %d", part, first, workers[part].HandoffSeq())
		}
	}
	if adopted := edgeA.Server().Stats().Adopted; adopted != uint64(len(events)) {
		t.Fatalf("edge A adopted %d events, feed carried %d", adopted, len(events))
	}
}

// TestWorkerEndsAtFeedCursor: a partitioned feed that ends on a foreign
// event reaches the worker as a bare cursor advance, which may arrive
// only as the feed ends. The worker's state, and its final ack, must
// still end at the feed's last sequence, the cursor it was sent.
func TestWorkerEndsAtFeedCursor(t *testing.T) {
	events, rule := campaignFeed()
	const part, parts = 1, 3
	end := len(events) - 1
	for end > 1 && (osn.PartitionDelivers(events[end-1], part, parts) || !osn.PartitionDelivers(events[end-2], part, parts)) {
		end--
	}
	srv := clusterServer(t)
	w, err := cluster.Start(workerConfig(srv.Addr(), part, parts, rule))
	if err != nil {
		t.Fatal(err)
	}
	srv.BroadcastBatch(events[:end-1])
	waitSeq(t, w, uint64(end-1)) // its own last event, framed on its own
	srv.BroadcastBatch(events[end-1 : end])
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := w.Pipeline().Seq(); got != uint64(end) {
		t.Fatalf("worker %d/%d ended at seq %d, the feed at %d", part, parts, got, end)
	}
	if got := srv.Stats().Delivered; got != uint64(end) {
		t.Fatalf("the worker acked the feed through seq %d, the feed ended at %d", got, end)
	}
}

// TestWorkerInvalidPartition: the harness rejects partitions the
// broker would reject, before dialing anything.
func TestWorkerInvalidPartition(t *testing.T) {
	for _, bad := range []struct{ part, parts int }{{-1, 2}, {2, 2}, {5, 3}} {
		if _, err := cluster.Start(cluster.Config{
			Addr: "127.0.0.1:0", Part: bad.part, Parts: bad.parts,
			Rule: detector.PaperRule(),
		}); err == nil {
			t.Fatalf("Start(%d/%d) succeeded, want error", bad.part, bad.parts)
		}
	}
}

// BenchmarkPartitionedIngest compares one pipeline ingesting the whole
// campaign against four partition-gated pipelines each ingesting their
// delivered slice in parallel — the in-process core of the cluster
// scaling claim, with the broker hop factored out. Total work at K=4
// is ~2.7x the single log (accepts replicate to every partition,
// requests to two), and single-core CI runners serialize the workers,
// so the bench gate holds workers=4 to at most 4x workers=1: loose
// enough to pass where no parallelism exists, tight enough to catch
// the filtering or contention pathologies it is there for.
func BenchmarkPartitionedIngest(b *testing.B) {
	events, rule := campaignFeed()
	for _, workers := range []int{1, 4} {
		slices := make([][]osn.Event, workers)
		if workers == 1 {
			slices[0] = events
		} else {
			for _, ev := range events {
				for part := 0; part < workers; part++ {
					if osn.PartitionDelivers(ev, part, workers) {
						slices[part] = append(slices[part], ev)
					}
				}
			}
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for part := 0; part < workers; part++ {
					opts := []detector.PipelineOption{detector.WithGraphReconstruction()}
					if workers > 1 {
						opts = append(opts, detector.WithPartition(part, workers))
					}
					p := detector.NewPipeline(rule, nil, opts...)
					wg.Add(1)
					go func(part int) {
						defer wg.Done()
						p.Ingest(detector.Batch{Events: slices[part]})
						p.Close()
					}(part)
				}
				wg.Wait()
			}
		})
	}
}
