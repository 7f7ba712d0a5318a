package cluster_test

import (
	"testing"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// TestStandbyWaitsForRedialingWorker: a spooled broker restarted on
// its directory and address holds its keys' snapshots, but a standby
// must not promote past a worker that is alive and still redialing.
// The restart lands while both workers sit in their redial backoff,
// longer than the standby's debounce; the broker's restart grace
// keeps the key unseen until they are back. Promoting would give the
// partition two owners, or end the worker on a claim refusal. Both
// workers resume, and the cluster's flags are the single run's.
func TestStandbyWaitsForRedialingWorker(t *testing.T) {
	events, rule := campaignFeed()
	want := singleRunFlags(t, events, rule)
	const k = 2
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
	workers := make([]*cluster.Worker, k)
	for part := range workers {
		cfg := workerConfig(addr, part, k, rule)
		cfg.Retries = 10
		w, err := cluster.Start(cfg)
		if err != nil {
			t.Fatalf("start worker %d/%d: %v", part, k, err)
		}
		workers[part] = w
	}
	cut := len(events) / 2
	for _, ev := range events[:cut] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	for _, w := range workers {
		waitOffered(t, w, 0)
	}

	srv.Abort()
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	// The workers' redials back off 50 ms, doubling: after 0.8 s the
	// next one is about 0.75 s away, five of the standby's polls.
	time.Sleep(800 * time.Millisecond)
	srv, sp = open(addr)
	defer func() { srv.Close(); sp.Close() }()
	sb, err := cluster.StartStandby(workerConfig(addr, 0, k, rule))
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	select {
	case <-sb.Done():
		t.Fatalf("standby promoted on the restarted broker while partition 0's worker was redialing (promotion error: %v)", sb.Err())
	case <-time.After(5 * time.Second): // past the broker's 4 s restart grace
	}

	for _, ev := range events[cut:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("broker close: %v", err)
	}
	checkUnion(t, workers, uint64(len(events)), want)
}

// TestStandbyPromotesPastStaleCheckpoint: a standby parked while the
// broker's snapshot of its partition is stale must, when the
// partition's worker dies, promote and adopt the dead worker's
// freshest offer, not the one held when it started watching. Every
// dial presents the session id it claimed the key for — the only one
// the broker admits — and the cluster's union flag set stays exactly
// the single run's.
func TestStandbyPromotesPastStaleCheckpoint(t *testing.T) {
	// The standby's own state is the stale snapshot it parked on; the
	// victim's fresher offer must win over it.
	t.Run("stale local adopts the offer", func(t *testing.T) {
		events, rule := campaignFeed()
		want := singleRunFlags(t, events, rule)
		const k = 2
		srv := clusterServer(t)
		workers := make([]*cluster.Worker, k)
		for part := range workers {
			w, err := cluster.Start(workerConfig(srv.Addr(), part, k, rule))
			if err != nil {
				t.Fatalf("start worker %d/%d: %v", part, k, err)
			}
			workers[part] = w
		}
		victim := workers[0]

		leg1, leg2 := len(events)/5, 3*len(events)/5
		for _, ev := range events[:leg1] {
			srv.BroadcastBatch([]osn.Event{ev})
		}
		waitOffered(t, victim, 0)
		stale := victim.OfferedSeq()
		sb, err := cluster.StartStandby(workerConfig(srv.Addr(), 0, k, rule))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sb.Stop)
		for _, ev := range events[leg1:leg2] {
			srv.BroadcastBatch([]osn.Event{ev})
		}
		waitOffered(t, victim, stale)
		victim.Kill()
		if err := victim.Wait(); err == nil {
			t.Fatal("killed worker reported a clean end of feed")
		}
		<-sb.Done()
		promoted := sb.Worker()
		if promoted == nil {
			t.Fatalf("standby never promoted: %v", sb.Err())
		}
		workers[0] = promoted
		if promoted.HandoffSeq() < victim.OfferedSeq() || promoted.ResumedFrom() != promoted.HandoffSeq()+1 {
			t.Fatalf("standby started from %q at seq %d, victim had offered %d",
				promoted.Origin(), promoted.ResumedFrom(), victim.OfferedSeq())
		}

		for _, ev := range events[leg2:] {
			srv.BroadcastBatch([]osn.Event{ev})
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("broker close: %v", err)
		}
		checkUnion(t, workers, uint64(len(events)), want)
		if first := promoted.FirstApplied(); first < promoted.ResumedFrom() {
			t.Fatalf("standby replayed seq %d below its resume point %d", first, promoted.ResumedFrom())
		}
	})
}
