package checkpoint

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stream"
)

// TestKillRestoreFlagEquality is the acceptance-criterion end-to-end:
// a checkpointed consumer (manual-ack client + pipeline +
// this package's store — exactly cmd/detectd's shape) is killed
// mid-stream with un-checkpointed progress in memory. Everything it
// held in RAM is discarded; only the checkpoint files and the
// server-side replay window survive, as after kill -9. A second
// consumer restores the newest checkpoint, resumes the feed from the
// sequence it covers, and must finish with a flag set identical to a
// serial Monitor replay of the same log.
func TestKillRestoreFlagEquality(t *testing.T) {
	pop := agents.NewPopulation(17, agents.DefaultParams())
	pop.Bootstrap(800)
	pop.LaunchSybils(15, 30*sim.TicksPerHour)
	pop.RunFor(120 * sim.TicksPerHour)
	events := pop.Net.Events()
	g := pop.Net.Graph()
	rule := detector.Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}

	// Reference: serial replay, no network, no interruption. Same
	// check cadence as the pipelines — cadence positions are part of
	// the state a checkpoint must carry.
	ref := detector.NewMonitor(rule, g, nil)
	ref.CheckEvery = 3
	for _, ev := range events {
		ref.Observe(ev)
	}
	if ref.FlaggedCount() == 0 {
		t.Fatal("reference monitor flagged nothing; equality test is vacuous")
	}

	srv, err := stream.NewServer("127.0.0.1:0", stream.WithReplayBuffer(len(events)+16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	store, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}

	// Producer: start broadcasting once the first consumer is on.
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
		if batches++; batches%7 == 0 {
			snap := p1.Snapshot()
			if _, err := store.Write(c1.Session(), snap); err != nil {
				t.Fatal(err)
			}
			c1.Ack(snap.Seq)
		}
	}
	// Guarantee un-checkpointed in-memory progress at the kill point:
	// apply a few more batches after whatever checkpoint came last.
	for i := 0; i < 3; i++ {
		evs, err := c1.RecvBatch()
		if err != nil {
			t.Fatalf("phase 1 tail recv: %v", err)
		}
		p1.Ingest(detector.Batch{Events: evs, LastSeq: c1.LastSeq()})
	}
	applied := c1.LastSeq()
	c1.Kick()  // the kill: connection severed without goodbye...
	p1.Close() // ...and the in-memory pipeline state is discarded.

	// What survives: the newest durable checkpoint, strictly behind
	// the killed consumer's in-memory progress.
	st, path, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no checkpoint survived the kill")
	}
	if st.Snapshot.Seq == 0 || st.Snapshot.Seq >= applied {
		t.Fatalf("checkpoint %s covers seq %d, killed consumer had applied %d — no replay gap to prove recovery on", path, st.Snapshot.Seq, applied)
	}

	// Phase 2: restore and resume. The replay gap (checkpoint..applied
	// and beyond) is re-delivered by the feed because the manual acks
	// never ran ahead of a durable checkpoint.
	p2, from, err := detector.NewPipelineFromSnapshot(rule, g, st.Snapshot)
	if err != nil {
		t.Fatalf("restore %s: %v", path, err)
	}
	if from != st.Snapshot.Seq+1 {
		t.Fatalf("resume sequence %d, want %d", from, st.Snapshot.Seq+1)
	}
	c2, err := stream.DialResume(srv.Addr(), st.Session, from)
	if err != nil {
		t.Fatalf("DialResume from checkpoint: %v", err)
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
		t.Fatalf("flag divergence across kill/restore:\n got %v\nwant %v", got, want)
	}
}

func sorted(ids []osn.AccountID) []osn.AccountID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
