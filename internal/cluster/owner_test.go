package cluster_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// TestStandbyPromotesPastStaleCheckpoint: a standby — a second worker
// started for a key its owner holds — waits, so every flagged account
// is judged once, not once per worker. When the owner is killed, the
// standby is admitted and adopts, in the handshake, the owner's
// freshest confirmed offer (not the stale one held when it started
// waiting), and the cluster's union flag set stays exactly the single
// run's.
func TestStandbyPromotesPastStaleCheckpoint(t *testing.T) {
	// The broker's snapshot of the key is stale when the standby starts
	// waiting; the victim's fresher offer must win over it.
	t.Run("stale local adopts the offer", secondWorkerWaitsThenAdopts)
}

func secondWorkerWaitsThenAdopts(t *testing.T) {
	events, rule := campaignFeed()
	want := singleRunFlags(t, events, rule)
	const k = 2
	srv := clusterServer(t)
	var mu sync.Mutex
	calls := make(map[osn.AccountID]int)
	cfgFor := func(part int) cluster.Config {
		cfg := workerConfig(srv.Addr(), part, k, rule)
		cfg.OnFlag = func(f detector.Flag) {
			mu.Lock()
			calls[f.ID]++
			mu.Unlock()
		}
		return cfg
	}
	workers := make([]*cluster.Worker, k)
	for part := range workers {
		w, err := cluster.Start(cfgFor(part))
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
	// The stale offer lies in the observation window, past the feed's
	// genesis prefix of bootstrap friendships, in which nobody is
	// flagged: the next offer then covers flags to check.
	waitOffered(t, victim, uint64(genesis(events)))
	stale := victim.OfferedSeq()
	spare := startAsync(cfgFor(0))
	for _, ev := range events[leg1:leg2] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	waitOffered(t, victim, stale)
	select {
	case st := <-spare:
		t.Fatalf("second worker on 0/%d started while the key was held (err: %v)", k, st.err)
	default:
	}
	mu.Lock()
	for id, n := range calls {
		if n != 1 {
			t.Fatalf("account %d flagged %d times while two workers ran for its key", id, n)
		}
	}
	flagged := len(calls)
	mu.Unlock()
	if flagged == 0 {
		t.Fatal("nothing flagged before the kill; the once-per-account check is vacuous")
	}

	// An offer in flight when the kill lands counts once the broker
	// confirmed it, which it does only while the victim owns the key:
	// the second worker adopts at least every confirmed offer.
	victim.Kill()
	if err := victim.Wait(); err == nil {
		t.Fatal("killed worker reported a clean end of feed")
	}
	st := <-spare
	if st.err != nil {
		t.Fatalf("second worker never took the key over: %v", st.err)
	}
	promoted := st.w
	workers[0] = promoted
	if promoted.HandoffSeq() < victim.OfferedSeq() || promoted.ResumedFrom() != promoted.HandoffSeq()+1 {
		t.Fatalf("second worker started from %q at seq %d, victim had offered %d",
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
		t.Fatalf("second worker replayed seq %d below its resume point %d", first, promoted.ResumedFrom())
	}
}

// TestRestartAdmitsOneOwnerPerKey: a spooled broker is restarted on its
// directory and address while both workers sit in their redial backoff
// and a second worker for partition 0 waits. Whichever of the two
// partition-0 workers dials the restarted broker first owns the key,
// with the state the broker held; the other waits, or ends on ErrHeld.
// No sample of the broker's sessions shows two connected on one key,
// and the owners' flags are the single run's.
func TestRestartAdmitsOneOwnerPerKey(t *testing.T) {
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

	// Sample every connected session of whichever broker is up.
	var cur atomic.Pointer[stream.Server]
	cur.Store(srv)
	var twice atomic.Pointer[string]
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			held := make(map[[2]int]int)
			for _, ss := range cur.Load().Stats().PerSession {
				if ss.Connected && ss.Parts >= 2 {
					if held[[2]int{ss.Part, ss.Parts}]++; held[[2]int{ss.Part, ss.Parts}] > 1 {
						why := fmt.Sprintf("two sessions connected on %d/%d", ss.Part, ss.Parts)
						twice.CompareAndSwap(nil, &why)
					}
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-sampled
		if why := twice.Load(); why != nil {
			t.Error(*why)
		}
	}()

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
	// The spare gives up some 0.75 s after the broker stops answering.
	spareCfg := workerConfig(addr, 0, k, rule)
	spareCfg.Retries = 4
	spare := startAsync(spareCfg)
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
	time.Sleep(300 * time.Millisecond) // every redial is now in backoff
	srv, sp = open(addr)
	defer sp.Close()
	cur.Store(srv)
	waitFor(t, func() bool {
		n := 0
		for _, ss := range srv.Stats().PerSession {
			if ss.Connected {
				n++
			}
		}
		return n == k
	}, "an owner for each of the %d keys on the restarted broker", k)
	for _, ev := range events[cut:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	// Worker 0 either consumes the feed past the cut, owning its key, or
	// ends once a redial finds the key held.
	done0 := make(chan error, 1)
	go func() { done0 <- workers[0].Wait() }()
	var err0 error
	ended := false
	waitFor(t, func() bool {
		select {
		case err0 = <-done0:
			ended = true
		default:
		}
		return ended || workers[0].Pipeline().Seq() > uint64(cut)
	}, "partition 0's worker to resume past seq %d or end", cut)
	if err := srv.Close(); err != nil {
		t.Fatalf("broker close: %v", err)
	}

	owners := append([]*cluster.Worker(nil), workers...)
	if ended {
		if !errors.Is(err0, stream.ErrHeld) {
			t.Fatalf("worker 0/%d ended before the feed did: %v", k, err0)
		}
		st := <-spare
		if st.err != nil {
			t.Fatalf("worker 0 lost its key, but the second worker never started: %v", st.err)
		}
		if st.w.HandoffSeq() == 0 || st.w.ResumedFrom() != st.w.HandoffSeq()+1 {
			t.Fatalf("second worker owns 0/%d from seq %d (adopted %d), want the reloaded snapshot", k, st.w.ResumedFrom(), st.w.HandoffSeq())
		}
		owners[0] = st.w
		t.Logf("the second worker took 0/%d over at seq %d", k, st.w.ResumedFrom())
	} else {
		// Worker 0 kept its key: the second worker waited, and gives up
		// once the closed broker stops answering.
		if st := <-spare; st.err == nil {
			t.Fatalf("second worker admitted beside worker 0, from seq %d", st.w.ResumedFrom())
		}
		t.Logf("worker 0 kept 0/%d", k)
	}
	checkUnion(t, owners, uint64(len(events)), want)
}

// TestWaitingSpareEndsWithTheFeed: a second worker waiting on a held
// key was never admitted and holds nothing, so the end of the feed ends
// its wait: Start returns an error wrapping stream.ErrClosed within a
// second of Server.Close, instead of walking its retries into a dial
// error. The owner ends cleanly with the feed.
func TestWaitingSpareEndsWithTheFeed(t *testing.T) {
	events, rule := campaignFeed()
	srv := clusterServer(t)
	cfg := workerConfig(srv.Addr(), 0, 2, rule)
	cfg.Retries = 10
	owner, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spare := startAsync(cfg)
	for _, ev := range events[:1000] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	time.Sleep(200 * time.Millisecond) // the spare's dials are refused as held
	if len(spare) > 0 {
		st := <-spare
		t.Fatalf("spare started beside the owner: %v", st.err)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-spare:
		if st.w != nil || !errors.Is(st.err, stream.ErrClosed) {
			t.Fatalf("spare at the end of the feed: err = %v, want one wrapping stream.ErrClosed", st.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("spare still waiting 5 s after the feed ended")
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("spare ended %v after Server.Close, want under 1 s", d)
	}
	if err := owner.Wait(); err != nil {
		t.Fatalf("owner: %v", err)
	}
}
