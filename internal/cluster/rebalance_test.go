package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/osn"
)

// TestLiveRebalanceFlagEquality is the PR's acceptance test: a K-way
// detection cluster is resized to K' mid-campaign, under load, via the
// broker-coordinated cutover — and afterwards one of the new workers is
// killed and recovered by an unattended standby. Three properties must
// hold at the end:
//
//   - The new generation's union flag set is identical to a single
//     uninterrupted unpartitioned run over the same feed.
//   - No event is ever judged by two owners: the per-event owner audit
//     (Config.Audit) across both generations covers every sequence
//     1..len(events) exactly once.
//   - The standby promotion replays nothing at or below the snapshot
//     cut it adopted.
func TestLiveRebalanceFlagEquality(t *testing.T) {
	events, rule := campaignFeed()

	want := singleRunFlags(t, events, rule)

	for _, shape := range []struct{ from, to int }{{3, 5}, {4, 2}} {
		t.Run(fmt.Sprintf("k=%dto%d", shape.from, shape.to), func(t *testing.T) {
			srv := clusterServer(t)
			workerCfg := func(part, parts int) cluster.Config {
				cfg := workerConfig(srv.Addr(), part, parts, rule)
				cfg.Audit = true
				return cfg
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
			barrier, err := cluster.Rebalance(srv.Addr(), shape.from, shape.to, 30*time.Second)
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

			// The new generation adopts the re-keyed snapshots and
			// resumes from barrier+1.
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

			// Third leg under way; kill one new worker and let an
			// unattended standby recover it.
			fed3 := make(chan struct{})
			go func() {
				defer close(fed3)
				for _, ev := range events[leg2:] {
					srv.BroadcastBatch([]osn.Event{ev})
				}
			}()
			sb, err := cluster.StartStandby(workerCfg(0, shape.to))
			if err != nil {
				t.Fatal(err)
			}
			killed := newGen[0]
			killed.Kill()
			if err := killed.Wait(); err == nil {
				t.Fatal("killed worker reported a clean end of feed")
			}
			<-sb.Done()
			promoted := sb.Worker()
			if promoted == nil {
				t.Fatalf("standby never promoted: %v", sb.Err())
			}
			newGen[0] = promoted
			if promoted.HandoffSeq() < barrier {
				t.Fatalf("standby adopted seq %d, below the cutover barrier %d",
					promoted.HandoffSeq(), barrier)
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
				t.Fatalf("standby replayed seq %d at or below its snapshot cut %d",
					first, promoted.HandoffSeq())
			}

			// Per-event owner audit: every sequence judged exactly once
			// across generations. The killed worker's post-snapshot work
			// was discarded state — its audit counts only through the
			// cut the standby adopted; the standby re-judged the rest.
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
