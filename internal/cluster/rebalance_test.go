package cluster_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// TestLiveRebalanceFlagEquality: a K-way detection cluster is resized
// to K' mid-campaign, under load: the broker sequences a cutover record
// at a barrier, the old group judges through it and retires there, and
// the new workers adopt its cut and re-key it themselves —
// and afterwards one of the new workers is killed and taken over by a
// second worker started for its key, which waited while the key was
// held. Three properties must hold at the end:
//
//   - The new generation's union flag set is identical to a single
//     uninterrupted unpartitioned run over the same feed.
//   - No event is ever judged by two owners: the per-event owner audit
//     (WithAudit) across both generations covers every sequence of the
//     feed, the record's included, exactly once.
//   - The takeover replays nothing at or below the snapshot cut it
//     adopted.
func TestLiveRebalanceFlagEquality(t *testing.T) {
	events, rule := campaignFeed()

	want := singleRunFlags(t, events, rule)

	for _, shape := range []struct{ from, to int }{{3, 5}, {4, 2}} {
		t.Run(fmt.Sprintf("k=%dto%d", shape.from, shape.to), func(t *testing.T) {
			srv := clusterServer(t)
			workerCfg := func(part, parts int) cluster.Config {
				return cluster.WithAudit(workerConfig(srv.Addr(), part, parts, rule))
			}
			// The old generation runs without Handoff: it offers only its
			// retirement snapshot, which it must do regardless.
			oldGen := make([]*cluster.Worker, shape.from)
			for p := range oldGen {
				cfg := workerCfg(p, shape.from)
				cfg.Handoff = false
				w, err := cluster.Start(cfg)
				if err != nil {
					t.Fatalf("start worker %d/%d: %v", p, shape.from, err)
				}
				oldGen[p] = w
			}

			// First leg, then cut over while the second leg is being
			// broadcast — the feed never pauses for the rebalance.
			leg1, leg2 := 2*len(events)/5, 3*len(events)/5
			for _, ev := range events[:leg1] {
				srv.BroadcastBatch([]osn.Event{ev})
			}
			fed := make(chan struct{})
			go func() {
				defer close(fed)
				for _, ev := range events[leg1:leg2] {
					srv.BroadcastBatch([]osn.Event{ev})
				}
			}()
			barrier, err := stream.PrepareRebalance(srv.Addr(), shape.from, shape.to)
			if err != nil {
				t.Fatalf("rebalance %d -> %d: %v", shape.from, shape.to, err)
			}
			<-fed
			if barrier <= uint64(leg1) || barrier > uint64(leg2)+1 {
				t.Fatalf("barrier %d outside the broadcast window (%d, %d]: the record follows at least the first leg", barrier, leg1, leg2+1)
			}

			// The old generation retires cleanly, every worker cut at
			// exactly the barrier.
			for p, w := range oldGen {
				if err := w.Wait(); err != nil {
					t.Fatalf("old worker %d/%d: %v", p, shape.from, err)
				}
				b, n, ok := w.Rebalanced()
				if !ok || b != barrier || n != shape.to {
					t.Fatalf("old worker %d/%d retired with (%d, %d, %v), want (%d, %d, true)",
						p, shape.from, b, n, ok, barrier, shape.to)
				}
				if got := w.Pipeline().Seq(); got != barrier {
					t.Fatalf("old worker %d/%d stopped at seq %d, barrier is %d", p, shape.from, got, barrier)
				}
				if st := w.Stats(); st.Offers != 1 || st.Offered != barrier {
					t.Fatalf("old worker %d/%d made %d offers, the newest at seq %d; want its one retirement offer at the barrier %d",
						p, shape.from, st.Offers, st.Offered, barrier)
				}
			}

			// The new generation adopts the cut, re-keys it and resumes
			// from barrier+1.
			newGen := make([]*cluster.Worker, shape.to)
			for p := range newGen {
				w, err := cluster.Start(workerCfg(p, shape.to))
				if err != nil {
					t.Fatalf("start new worker %d/%d: %v", p, shape.to, err)
				}
				if w.HandoffSeq() != barrier || w.ResumedFrom() != barrier+1 {
					t.Fatalf("new worker %d/%d adopted seq %d resuming %d, want %d resuming %d",
						p, shape.to, w.HandoffSeq(), w.ResumedFrom(), barrier, barrier+1)
				}
				newGen[p] = w
			}

			// Third leg under way; a second worker for 0/K' waits while
			// the key is held, then takes it over when its owner is killed.
			fed3 := make(chan struct{})
			go func() {
				defer close(fed3)
				for _, ev := range events[leg2:] {
					srv.BroadcastBatch([]osn.Event{ev})
				}
			}()
			spare := startAsync(workerCfg(0, shape.to))
			killed := newGen[0]
			killed.Kill()
			if err := killed.Wait(); err == nil {
				t.Fatal("killed worker reported a clean end of feed")
			}
			st := <-spare
			if st.err != nil {
				t.Fatalf("second worker never took the key over: %v", st.err)
			}
			promoted := st.w
			newGen[0] = promoted
			if promoted.HandoffSeq() < barrier || promoted.ResumedFrom() != promoted.HandoffSeq()+1 {
				t.Fatalf("second worker adopted seq %d resuming %d; want the victim's offer (barrier %d or later), resumed right after it",
					promoted.HandoffSeq(), promoted.ResumedFrom(), barrier)
			}

			<-fed3
			if err := srv.Close(); err != nil {
				t.Fatalf("broker close: %v", err)
			}
			// Union flag equality: the new generation (whose snapshots
			// inherited the old generation's verdicts through the
			// re-keying) must flag exactly what the uninterrupted single
			// run flagged, each account in its owner partition only. The
			// feed is the events and the record.
			checkUnion(t, newGen, uint64(len(events))+1, want)
			if first := promoted.FirstApplied(); first != 0 && first <= promoted.HandoffSeq() {
				t.Fatalf("second worker replayed seq %d at or below its snapshot cut %d",
					first, promoted.HandoffSeq())
			}

			// Per-event owner audit: every sequence judged exactly once
			// across generations. The killed worker's post-snapshot work
			// was discarded state — its audit counts only through the
			// cut the second worker adopted, which re-judged the rest.
			judged := make(map[uint64]int, len(events))
			for _, w := range oldGen {
				for _, s := range w.OwnedSeqs() {
					judged[s]++
				}
			}
			for _, s := range killed.OwnedSeqs() {
				if s <= promoted.HandoffSeq() {
					judged[s]++
				}
			}
			for _, w := range newGen {
				for _, s := range w.OwnedSeqs() {
					judged[s]++
				}
			}
			for s := uint64(1); s <= uint64(len(events))+1; s++ {
				if judged[s] != 1 {
					t.Fatalf("seq %d judged by %d owners, want exactly 1", s, judged[s])
				}
			}
		})
	}
}

// TestLiveRebalanceEarlyStart: the new generation is started right
// after the prepare, while the old generation's cut is still
// incomplete — one old worker was killed before the barrier, so its
// key's snapshot is behind it until a replacement retires there. Each
// new worker waits for the cut instead of starting cold, then adopts it
// (HandoffSeq == B, ResumedFrom == B+1); the union of flags equals the
// single run's and every sequence is judged exactly once.
func TestLiveRebalanceEarlyStart(t *testing.T) {
	events, rule := campaignFeed()
	want := singleRunFlags(t, events, rule)
	const from, to = 2, 3
	srv := clusterServer(t)
	workerCfg := func(part, parts int) cluster.Config {
		return cluster.WithAudit(workerConfig(srv.Addr(), part, parts, rule))
	}
	oldGen := make([]*cluster.Worker, from)
	for p := range oldGen {
		w, err := cluster.Start(workerCfg(p, from))
		if err != nil {
			t.Fatalf("start worker %d/%d: %v", p, from, err)
		}
		oldGen[p] = w
	}
	half := len(events) / 2
	for _, ev := range events[:half] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	victim := oldGen[1]
	waitOffered(t, victim, 0)
	victim.Kill()
	if err := victim.Wait(); err == nil {
		t.Fatal("killed worker reported a clean end of feed")
	}
	barrier, err := stream.PrepareRebalance(srv.Addr(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if barrier != uint64(half)+1 {
		t.Fatalf("barrier %d, want the record right after the head %d", barrier, half)
	}
	newGen := make([]<-chan started, to)
	for p := range newGen {
		newGen[p] = startAsync(workerCfg(p, to))
	}
	if err := oldGen[0].Wait(); err != nil {
		t.Fatalf("old worker 0/%d: %v", from, err)
	}
	for p, ch := range newGen {
		select {
		case st := <-ch:
			t.Fatalf("new worker %d/%d started (err %v) while the cut lacked 1/%d", p, to, st.err, from)
		default:
		}
	}

	// The victim's replacement adopts its last offer, judges through the
	// record and retires there, completing the cut.
	repl, err := cluster.Start(workerCfg(1, from))
	if err != nil {
		t.Fatalf("replacement 1/%d: %v", from, err)
	}
	if err := repl.Wait(); err != nil {
		t.Fatalf("replacement 1/%d: %v", from, err)
	}
	if b, _, ok := repl.Rebalanced(); !ok || b != barrier {
		t.Fatalf("replacement retired with (%d, %v), want the barrier %d", b, ok, barrier)
	}
	workers := make([]*cluster.Worker, to)
	for p, ch := range newGen {
		st := <-ch
		if st.err != nil {
			t.Fatalf("start new worker %d/%d: %v", p, to, st.err)
		}
		if w := st.w; w.HandoffSeq() != barrier || w.ResumedFrom() != barrier+1 {
			t.Fatalf("new worker %d/%d adopted seq %d resuming %d, want %d resuming %d",
				p, to, w.HandoffSeq(), w.ResumedFrom(), barrier, barrier+1)
		}
		workers[p] = st.w
	}
	if reb := srv.Stats().Rebalances; len(reb) != 1 || !reb[0].Committed {
		t.Fatalf("rebalance audit %+v, want one committed by the new workers' offers", reb)
	}
	for _, ev := range events[half:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("broker close: %v", err)
	}
	checkUnion(t, workers, uint64(len(events))+1, want)

	judged := make(map[uint64]int, len(events))
	for _, w := range append([]*cluster.Worker{oldGen[0], repl}, workers...) {
		for _, s := range w.OwnedSeqs() {
			judged[s]++
		}
	}
	for _, s := range victim.OwnedSeqs() {
		if s <= repl.HandoffSeq() {
			judged[s]++
		}
	}
	for s := uint64(1); s <= uint64(len(events))+1; s++ {
		if judged[s] != 1 {
			t.Fatalf("seq %d judged by %d owners, want exactly 1", s, judged[s])
		}
	}
}

// TestRebalanceSurvivesRootRestart: a K=2→3 cutover on a spooled root
// survives the root's restart between the prepare and the end of the
// old workers. The old workers are killed after an offer below the
// barrier, the prepare runs, and the root is aborted and reopened on
// the same spool and address: it holds the cut again from the note it
// wrote beside its log. The restarted old workers adopt their
// snapshots, replay to the record and retire at B; new workers adopt
// the cut (HandoffSeq == B, ResumedFrom == B+1), whether they start
// after the old workers retired or before the old workers return, when
// they wait for the cut — also when they already waited before the
// restart, which they outlive whether the root is killed or closed: a
// worker waiting on a cut is the key's only designated owner. The
// union of flags equals the single run's, and each sequence of the
// feed is judged exactly once.
func TestRebalanceSurvivesRootRestart(t *testing.T) {
	for _, tc := range []struct {
		name  string
		at    newAt
		clean bool
	}{
		{"old-workers-first", afterOld, false},
		{"new-workers-first", afterRestart, false},
		{"new-workers-across-kill", beforeRestart, false},
		{"new-workers-across-close", beforeRestart, true},
	} {
		t.Run(tc.name, func(t *testing.T) { rebalanceAcrossRootRestart(t, tc.at, tc.clean) })
	}
}

// newAt is when rebalanceAcrossRootRestart starts the new shape's
// workers.
type newAt int

const (
	afterOld      newAt = iota // once the restarted old workers retired
	afterRestart               // as the root comes back, before the old workers
	beforeRestart              // after the prepare, waiting on the cut while the root restarts
)

// rebalanceAcrossRootRestart restarts the root with Abort, or with
// Close when clean.
func rebalanceAcrossRootRestart(t *testing.T, at newAt, clean bool) {
	events, rule := campaignFeed()
	want := singleRunFlags(t, events, rule)
	const from, to = 2, 3
	dir := t.TempDir()
	open := func(addr string) (*stream.Server, *spool.Spool) {
		t.Helper()
		sp, err := spool.Open(dir, spool.WithSegmentBytes(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := stream.NewServer(addr, stream.WithReplayBuffer(4096), stream.WithSpool(sp))
		if err != nil {
			sp.Close()
			t.Fatal(err)
		}
		return srv, sp
	}
	srv, sp := open("127.0.0.1:0")
	addr := srv.Addr()
	workerCfg := func(part, parts int) cluster.Config {
		return cluster.WithAudit(workerConfig(addr, part, parts, rule))
	}
	killed := make([]*cluster.Worker, from)
	for p := range killed {
		w, err := cluster.Start(workerCfg(p, from))
		if err != nil {
			t.Fatalf("start worker %d/%d: %v", p, from, err)
		}
		killed[p] = w
	}
	half := len(events) / 2
	for _, ev := range events[:half] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	for p, w := range killed {
		waitOffered(t, w, 0)
		w.Kill()
		if err := w.Wait(); err == nil {
			t.Fatalf("killed worker %d/%d reported a clean end of feed", p, from)
		}
	}
	barrier, err := stream.PrepareRebalance(addr, from, to)
	if err != nil {
		t.Fatal(err)
	}

	pending := make([]<-chan started, to)
	startNew := func() {
		for p := range pending {
			cfg := workerCfg(p, to)
			cfg.Retries = 10 // outlives the restart
			pending[p] = startAsync(cfg)
		}
		time.Sleep(200 * time.Millisecond) // a few refused dials: the cut is not complete
		for p, ch := range pending {
			if at != afterOld && len(ch) > 0 {
				st := <-ch
				t.Fatalf("new worker %d/%d returned before the old workers did: %v", p, to, st.err)
			}
		}
	}
	if at == beforeRestart {
		startNew()
	}
	if clean {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		srv.Abort()
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	srv, sp = open(addr)
	defer sp.Close()
	defer srv.Close()
	if at == afterRestart {
		startNew()
	}
	olds := make([]*cluster.Worker, from)
	for p := range olds {
		w, err := cluster.Start(workerCfg(p, from))
		if err != nil {
			t.Fatalf("restart worker %d/%d: %v", p, from, err)
		}
		if w.HandoffSeq() == 0 || w.HandoffSeq() >= barrier {
			t.Fatalf("restarted worker %d/%d adopted seq %d, want its offer below the barrier %d", p, from, w.HandoffSeq(), barrier)
		}
		olds[p] = w
	}
	for p, w := range olds {
		done := make(chan error, 1)
		go func() { done <- w.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("restarted worker %d/%d: %v", p, from, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("restarted worker %d/%d never retired: the root forgot the cutover", p, from)
		}
		if b, n, ok := w.Rebalanced(); !ok || b != barrier || n != to || w.Pipeline().Seq() != barrier {
			t.Fatalf("restarted worker %d/%d retired with (%d, %d, %v) at seq %d, want (%d, %d, true) at the barrier",
				p, from, b, n, ok, w.Pipeline().Seq(), barrier, to)
		}
	}
	if at == afterOld {
		startNew()
	}
	news := make([]*cluster.Worker, to)
	for p, ch := range pending {
		st := <-ch
		if st.err != nil {
			t.Fatalf("start new worker %d/%d: %v", p, to, st.err)
		}
		w := st.w
		if w.HandoffSeq() != barrier || w.ResumedFrom() != barrier+1 {
			t.Fatalf("new worker %d/%d adopted seq %d resuming %d, want %d resuming %d",
				p, to, w.HandoffSeq(), w.ResumedFrom(), barrier, barrier+1)
		}
		news[p] = w
	}
	for _, ev := range events[half:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("broker close: %v", err)
	}
	checkUnion(t, news, uint64(len(events))+1, want)

	judged := make(map[uint64]int, len(events))
	for p, w := range killed {
		for _, s := range w.OwnedSeqs() {
			if s <= olds[p].HandoffSeq() {
				judged[s]++
			}
		}
	}
	for _, w := range append(olds, news...) {
		for _, s := range w.OwnedSeqs() {
			judged[s]++
		}
	}
	for s := uint64(1); s <= uint64(len(events))+1; s++ {
		if judged[s] != 1 {
			t.Fatalf("seq %d judged by %d owners, want exactly 1", s, judged[s])
		}
	}
}

// TestRetiredShapeSpareEndsAtOnce: a worker of a shape a rebalance
// retired, which would not reach the cutover record, has nothing to
// judge, and Start says so at once (ErrRebalanced naming the cutover)
// instead of redialing through its retries: a spare whose adopted
// snapshot sits at the barrier, and one that dials after the commit,
// when the retired shape holds no snapshot at all.
func TestRetiredShapeSpareEndsAtOnce(t *testing.T) {
	events, rule := campaignFeed()
	const from, to = 2, 3
	srv := clusterServer(t)
	workerCfg := func(part, parts int) cluster.Config {
		cfg := workerConfig(srv.Addr(), part, parts, rule)
		cfg.Retries = 10
		return cfg
	}
	olds := make([]*cluster.Worker, from)
	for p := range olds {
		w, err := cluster.Start(workerCfg(p, from))
		if err != nil {
			t.Fatalf("start worker %d/%d: %v", p, from, err)
		}
		olds[p] = w
	}
	for _, ev := range events[:2000] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	barrier, err := stream.PrepareRebalance(srv.Addr(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	for p, w := range olds {
		if err := w.Wait(); err != nil {
			t.Fatalf("old worker %d/%d: %v", p, from, err)
		}
	}
	spare := func(part int) {
		t.Helper()
		start := time.Now()
		w, err := cluster.Start(workerCfg(part, from))
		var reb *stream.RebalancedError
		if !errors.Is(err, stream.ErrRebalanced) || !errors.As(err, &reb) || *reb != (stream.RebalancedError{From: from, To: to, Barrier: barrier}) {
			if w != nil {
				w.Kill()
				w.Wait()
			}
			t.Fatalf("spare %d/%d: err = %v, want ErrRebalanced naming %d -> %d at %d", part, from, err, from, to, barrier)
		}
		if d := time.Since(start); d >= time.Second {
			t.Fatalf("spare %d/%d took %v to end", part, from, d)
		}
	}
	spare(0) // its key's snapshot sits at the barrier
	news := make([]*cluster.Worker, to)
	for p := range news {
		if news[p], err = cluster.Start(workerCfg(p, to)); err != nil {
			t.Fatalf("start new worker %d/%d: %v", p, to, err)
		}
	}
	if reb := srv.Stats().Rebalances; len(reb) != 1 || !reb[0].Committed {
		t.Fatalf("rebalance audit %+v, want one committed by the new workers' offers", reb)
	}
	spare(1) // the commit dropped the retired shape's snapshots
	for _, w := range news {
		w.Stop()
		w.Wait()
	}
}

// TestReplayJudgesPastAnEarlierCut: a 2→3 rebalance and then a 3→2
// one return the cluster to shape 2. A spare of shape 2 replaying the
// feed from sequence 1 meets the 2→3 record first, but its broker told
// it the shape was cut back to at the later barrier, so it judges on
// past the earlier record instead of retiring there, and the broker
// still holds just the two committed cutovers.
func TestReplayJudgesPastAnEarlierCut(t *testing.T) {
	events, rule := campaignFeed()
	srv := clusterServer(t)
	addr := srv.Addr()
	gen := func(parts int) []*cluster.Worker {
		t.Helper()
		ws := make([]*cluster.Worker, parts)
		for p := range ws {
			w, err := cluster.Start(workerConfig(addr, p, parts, rule))
			if err != nil {
				t.Fatalf("start worker %d/%d: %v", p, parts, err)
			}
			ws[p] = w
		}
		return ws
	}
	cut := func(ws []*cluster.Worker, to int, evs []osn.Event) uint64 {
		t.Helper()
		for _, ev := range evs {
			srv.BroadcastBatch([]osn.Event{ev})
		}
		barrier, err := stream.PrepareRebalance(addr, len(ws), to)
		if err != nil {
			t.Fatal(err)
		}
		for p, w := range ws {
			if err := w.Wait(); err != nil {
				t.Fatalf("worker %d/%d: %v", p, len(ws), err)
			}
			if b, n, ok := w.Rebalanced(); !ok || b != barrier || n != to {
				t.Fatalf("worker %d/%d retired with (%d, %d, %v), want (%d, %d, true)", p, len(ws), b, n, ok, barrier, to)
			}
		}
		return barrier
	}
	first := cut(gen(2), 3, events[:2000])
	second := cut(gen(3), 2, events[2000:4000])
	for _, w := range gen(2) {
		w.Stop()
		w.Wait()
	}
	for _, ev := range events[4000:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	cfg := workerConfig(addr, 0, 2, rule)
	cfg.Handoff, cfg.FromStart = false, true
	spare, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return spare.Pipeline().Seq() > second }, "the replay to pass the 3→2 cut at %d", second)
	if b, _, ok := spare.Rebalanced(); ok {
		t.Fatalf("the replay retired at %d, an earlier generation's cut (the shape was cut back to at %d)", b, second)
	}
	reb := srv.Stats().Rebalances
	if len(reb) != 2 || reb[0].Barrier != first || reb[1].Barrier != second || !reb[0].Committed || !reb[1].Committed {
		t.Fatalf("rebalance audit %+v, want the committed cutovers at %d and %d only", reb, first, second)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := spare.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// BenchmarkClusterRebalance times a live 3→5 cutover through a real
// spooled broker and real workers: from the prepare until every new
// worker's Start has returned, the old generation's retirement offers
// included. Each new worker is handed the old group's three snapshots
// at the barrier and re-keys them itself; B/worker is the snapshot
// payload each one receives in its handshake.
func BenchmarkClusterRebalance(b *testing.B) {
	events, rule := campaignFeed()
	const from, to = 3, 5
	var elapsed time.Duration
	var received int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sp, err := spool.Open(b.TempDir(), spool.WithSegmentBytes(1<<20))
		if err != nil {
			b.Fatal(err)
		}
		srv, err := stream.NewServer("127.0.0.1:0", stream.WithReplayBuffer(4096), stream.WithSpool(sp))
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			srv.BroadcastBatch([]osn.Event{ev})
		}
		oldGen := make([]*cluster.Worker, from)
		for p := range oldGen {
			cfg := workerConfig(srv.Addr(), p, from, rule)
			cfg.Handoff, cfg.FromStart = false, true
			if oldGen[p], err = cluster.Start(cfg); err != nil {
				b.Fatal(err)
			}
			var last uint64 // the partition's last delivered event: the old worker has caught up there
			for j, ev := range events {
				if osn.PartitionDelivers(ev, p, from) {
					last = uint64(j + 1)
				}
			}
			for oldGen[p].Pipeline().Seq() < last {
				time.Sleep(time.Millisecond)
			}
		}

		start := time.Now()
		b.StartTimer()
		barrier, err := stream.PrepareRebalance(srv.Addr(), from, to)
		if err != nil {
			b.Fatal(err)
		}
		newGen := make([]<-chan started, to)
		for p := range newGen {
			newGen[p] = startAsync(workerConfig(srv.Addr(), p, to, rule))
		}
		for _, w := range oldGen {
			if err := w.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for _, sn := range srv.Stats().Snapshots {
			if sn.Parts == from && sn.Seq == barrier {
				received += len(sn.Data)
			}
		}
		b.StartTimer()
		workers := make([]*cluster.Worker, to)
		for p, ch := range newGen {
			st := <-ch
			if st.err != nil {
				b.Fatal(st.err)
			}
			workers[p] = st.w
		}
		b.StopTimer()
		elapsed += time.Since(start)
		for p, w := range workers {
			if w.HandoffSeq() != barrier {
				b.Fatalf("new worker %d/%d adopted seq %d, want the barrier %d", p, to, w.HandoffSeq(), barrier)
			}
			w.Stop()
			w.Wait()
		}
		srv.Close()
		sp.Close()
	}
	b.ReportMetric(float64(elapsed.Microseconds())/1e3/float64(b.N), "ms/cutover")
	b.ReportMetric(float64(received)/float64(b.N), "B/worker")
}
