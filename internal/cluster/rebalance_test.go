package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// TestLiveRebalanceFlagEquality: a K-way detection cluster is resized
// to K' mid-campaign, under load: the broker fences the old group at a
// barrier and the new workers adopt its cut and re-key it themselves —
// and afterwards one of the new workers is killed and taken over by a
// second worker started for its key, which waited while the key was
// held. Three properties must hold at the end:
//
//   - The new generation's union flag set is identical to a single
//     uninterrupted unpartitioned run over the same feed.
//   - No event is ever judged by two owners: the per-event owner audit
//     (WithAudit) across both generations covers every sequence
//     1..len(events) exactly once.
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
			if barrier < uint64(leg1) || barrier > uint64(leg2) {
				t.Fatalf("barrier %d outside the broadcast window [%d, %d]", barrier, leg1, leg2)
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
			// run flagged, each account in its owner partition only.
			checkUnion(t, newGen, uint64(len(events)), want)
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
			for s := uint64(1); s <= uint64(len(events)); s++ {
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
	if barrier != uint64(half) {
		t.Fatalf("barrier %d, want the head %d", barrier, half)
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

	// The victim's replacement adopts its last offer, drains to the
	// barrier as a fenced session and retires there, completing the cut.
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
	checkUnion(t, workers, uint64(len(events)), want)

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
	for s := uint64(1); s <= uint64(len(events)); s++ {
		if judged[s] != 1 {
			t.Fatalf("seq %d judged by %d owners, want exactly 1", s, judged[s])
		}
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
