package checkpoint

import (
	"reflect"
	"testing"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/detector"
	"sybilwild/internal/sim"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// TestColdRestartFromStaleCheckpointViaSpool is the acceptance
// end-to-end for the feed's disk tier: the in-memory replay window is
// tiny (64 events — orders of magnitude below the checkpoint
// interval), the feed is spooled to disk segments, and a checkpointed
// consumer (manual-ack client + pipeline + checkpoint store —
// cmd/detectd's exact shape) is killed without warning. Everything in
// RAM dies; by the time the replacement process cold-starts, the feed
// head has run thousands of events past the stale checkpoint, so the
// entire replay gap must be served from spool segments — the old
// contract would have answered with ErrGap and a lost detector. The
// recovered flag set must equal a serial Monitor replay of the same
// log: recovery is invisible in the verdicts.
func TestColdRestartFromStaleCheckpointViaSpool(t *testing.T) {
	pop := agents.NewPopulation(17, agents.DefaultParams())
	pop.Bootstrap(800)
	pop.LaunchSybils(15, 30*sim.TicksPerHour)
	pop.RunFor(120 * sim.TicksPerHour)
	events := pop.Net.Events()
	g := pop.Net.Graph()
	rule := detector.Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}

	// Reference: serial replay, no network, no interruption.
	ref := detector.NewMonitor(rule, g, nil)
	ref.CheckEvery = 3
	for _, ev := range events {
		ref.Observe(ev)
	}
	if ref.FlaggedCount() == 0 {
		t.Fatal("reference monitor flagged nothing; equality test is vacuous")
	}

	const window = 64 // the acceptance criterion: replay window ≤ 64
	sp, err := spool.Open(t.TempDir(), spool.WithSegmentBytes(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	srv, err := stream.NewServer("127.0.0.1:0",
		stream.WithReplayBuffer(window), stream.WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	store, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}

	// Producer: the whole campaign, started once the first consumer is
	// on. The tiny window would stall a spool-less feed the moment the
	// manual-ack consumer lags one checkpoint; here it flows.
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for srv.NumClients() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for _, ev := range events {
			srv.Broadcast(ev)
		}
	}()

	// Phase 1: checkpointed consumer, killed a third of the way in.
	// Checkpoints are far apart (every 30 batches), so its acks trail
	// delivery by far more than the 64-event window.
	c1, err := stream.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c1.SetManualAck(true)
	p1 := detector.NewPipeline(rule, g, detector.WithCheckEvery(3))
	killAt := uint64(len(events) / 3)
	batches := 0
	for c1.LastSeq() < killAt {
		evs, err := c1.RecvBatch()
		if err != nil {
			t.Fatalf("phase 1 recv: %v", err)
		}
		p1.Ingest(detector.Batch{Events: evs, LastSeq: c1.LastSeq()})
		if batches++; batches%30 == 0 {
			snap := p1.Snapshot()
			if _, err := store.Write(c1.Session(), snap); err != nil {
				t.Fatal(err)
			}
			c1.Ack(snap.Seq)
		}
	}
	c1.Kick()  // kill -9: connection severed without goodbye...
	p1.Close() // ...and every byte of in-memory state is discarded.

	// What survives: the newest durable checkpoint, stale by far more
	// than the in-memory window can replay.
	st, path, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no checkpoint survived the kill")
	}

	// Let the feed run well past the kill point before the cold
	// restart, so even the kill-time in-flight events have long left
	// every ring.
	deadline := time.Now().Add(30 * time.Second)
	for sp.End() < uint64(len(events)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sp.End() != uint64(len(events)) {
		t.Fatalf("spool holds %d events, want %d — producer stalled", sp.End(), len(events))
	}
	if gap := uint64(len(events)) - st.Snapshot.Seq; gap <= window {
		t.Fatalf("replay gap is only %d events (≤ window %d); nothing would prove the disk tier", gap, window)
	}

	// Phase 2: cold restart. Restore the stale checkpoint, resume the
	// feed at the sequence it covers — thousands of events behind a
	// 64-event window. Only the spool can serve this.
	p2, from, err := detector.NewPipelineFromSnapshot(rule, g, st.Snapshot)
	if err != nil {
		t.Fatalf("restore %s: %v", path, err)
	}
	c2, err := stream.DialResume(srv.Addr(), st.Session, from)
	if err != nil {
		t.Fatalf("DialResume %d events behind the head with a %d-event window: %v",
			uint64(len(events))-st.Snapshot.Seq, window, err)
	}
	defer c2.Close()
	c2.SetManualAck(true)
	for c2.LastSeq() < uint64(len(events)) {
		evs, err := c2.RecvBatch()
		if err != nil {
			t.Fatalf("phase 2 recv at seq %d: %v", c2.LastSeq(), err)
		}
		p2.Ingest(detector.Batch{Events: evs, LastSeq: c2.LastSeq()})
	}
	finalSnap := p2.Snapshot()
	if _, err := store.Write(c2.Session(), finalSnap); err != nil {
		t.Fatal(err)
	}
	c2.Ack(finalSnap.Seq)
	p2.Close()
	if finalSnap.Seq != uint64(len(events)) {
		t.Fatalf("final checkpoint at seq %d, want %d", finalSnap.Seq, len(events))
	}

	want := sorted(ref.FlaggedIDs())
	got := sorted(p2.FlaggedIDs())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag divergence across cold restart from stale checkpoint:\n got %v\nwant %v", got, want)
	}
	if ev := srv.Stats().Evicted; ev != 0 {
		t.Fatalf("evicted = %d, want 0 — the disk tier must make this scenario lossless", ev)
	}
}
