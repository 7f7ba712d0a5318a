package stream

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// simEvents runs the reference campaign once and returns its full
// operational log.
func simEvents(seed int64) []osn.Event {
	pop := agents.NewPopulation(seed, agents.DefaultParams())
	pop.Bootstrap(800)
	pop.LaunchSybils(15, 30*sim.TicksPerHour)
	pop.RunFor(120 * sim.TicksPerHour)
	return pop.Net.Events()
}

// TestSimulationDeterminism pins the contract renrend's publish mode
// is built on: two populations from the same seed emit byte-for-byte
// identical event streams, so K processes each running the simulation
// and publishing disjoint actor partitions jointly reproduce exactly
// the single-process event set.
func TestSimulationDeterminism(t *testing.T) {
	a := simEvents(99)
	b := simEvents(99)
	if len(a) != len(b) {
		t.Fatalf("event counts diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestProducerPartitionCoversAndAgrees: the partition function is total,
// stable, and splits a real population roughly evenly.
func TestProducerPartitionCoversAndAgrees(t *testing.T) {
	const n = 3
	counts := make([]int, n)
	for id := osn.AccountID(0); id < 10000; id++ {
		pi := osn.Partition(id, n)
		if pi < 0 || pi >= n {
			t.Fatalf("partition out of range: %d", pi)
		}
		if pi != osn.Partition(id, n) {
			t.Fatalf("partition unstable for %d", id)
		}
		counts[pi]++
	}
	for i, c := range counts {
		if c < 10000/n/2 {
			t.Fatalf("partition %d badly skewed: %v", i, counts)
		}
	}
}

// TestMultiProducerFlagEquality is the tentpole E2E at package level:
// three producers jointly publish one campaign's partitioned event
// set into a single broker — one of them killed mid-feed at the
// transport level and restarted into a fresh epoch. The broker's
// interleaving of the producers depends on timing, and the detector
// is a function of feed order, so the merged feed need not flag what
// the single-producer log flags. What must hold: the subscriber gets
// every event exactly once, each producer's events in that producer's
// order, and the pipeline consuming the merged feed flags exactly what
// a serial replay of the order it was delivered flags.
func TestMultiProducerFlagEquality(t *testing.T) {
	const producers = 3
	events := simEvents(17)
	rule := detector.Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}

	parts := make([][]osn.Event, producers)
	for _, ev := range events {
		pi := osn.Partition(ev.Actor, producers)
		parts[pi] = append(parts[pi], ev)
	}
	total := 0
	for pi, part := range parts {
		if len(part) == 0 {
			t.Fatalf("partition %d empty; population too small for the test", pi)
		}
		total += len(part)
	}
	if total != len(events) {
		t.Fatalf("partitions cover %d of %d events", total, len(events))
	}

	srv, err := NewServer("127.0.0.1:0", WithReplayBuffer(8192))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pipe := detector.NewPipeline(rule, nil, detector.WithGraphReconstruction())
	var delivered []osn.Event // copied: evs is valid only during the call
	subDone := make(chan error, 1)
	go func() {
		subDone <- SubscribeBatch(srv.Addr(), func(evs []osn.Event) {
			delivered = append(delivered, evs...)
			pipe.Ingest(detector.Batch{Events: evs})
		}, 10)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.NumClients() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			errs <- publishPartition(srv.Addr(), pi, producers, parts[pi], pi == 1)
		}(pi)
	}
	closeOnIngestDone(srv)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-subDone; err != nil {
		t.Fatalf("subscriber: %v", err)
	}
	pipe.Close()
	srv.Close() // synchronize accounting

	st := srv.Stats()
	if st.Broadcast != uint64(len(events)) {
		t.Fatalf("sequenced %d events, want exactly %d (kill/restart must not gap or duplicate)",
			st.Broadcast, len(events))
	}
	if st.Delivered != st.Broadcast || st.Evicted != 0 {
		t.Fatalf("audit: sent=%d delivered=%d evicted=%d", st.Broadcast, st.Delivered, st.Evicted)
	}

	// (a) The delivered feed is the event set, each event exactly once.
	count := make(map[osn.Event]int, len(events))
	for _, ev := range events {
		count[ev]++
	}
	for _, ev := range delivered {
		count[ev]--
	}
	for ev, n := range count {
		if n != 0 {
			t.Fatalf("event %+v: campaign count minus delivered count = %d", ev, n)
		}
	}

	// (b) Each producer's events arrive in that producer's order.
	next := make([]int, producers)
	for i, ev := range delivered {
		pi := osn.Partition(ev.Actor, producers)
		if ev != parts[pi][next[pi]] {
			t.Fatalf("delivered event %d %+v breaks producer %d's order: want its event %d %+v",
				i, ev, pi, next[pi], parts[pi][next[pi]])
		}
		next[pi]++
	}

	// (c) The live pipeline flags what a serial replay of the delivered
	// order flags, graph rebuilt from the feed alone (as detectd would).
	ref := detector.NewPipeline(rule, nil, detector.WithGraphReconstruction())
	ref.Ingest(detector.Batch{Events: delivered})
	ref.Close()
	want, got := ref.FlaggedIDs(), pipe.FlaggedIDs()
	if len(want) == 0 {
		t.Fatal("serial replay flagged nothing; equality test is vacuous")
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("flag divergence: serial replay of the delivered order flagged %v, the live pipeline %v", want, got)
	}
}

// publishPartition plays one producer process: publish the partition
// in order, and — when kill is set — abort mid-feed and restart as a
// fresh process would: new epoch, skip the prefix the broker reports
// durable, publish the rest.
func publishPartition(addr string, pi, producers int, part []osn.Event, kill bool) error {
	id := fmt.Sprintf("p%d", pi)
	pub, err := NewPublisher(addr, id, producers, withPublishMaxBatch(64))
	if err != nil {
		return err
	}
	if pub.SkipEvents() != 0 {
		return fmt.Errorf("producer %s: fresh feed reports %d durable events", id, pub.SkipEvents())
	}
	cut := len(part)
	if kill {
		cut = len(part) / 2
	}
	for i := 0; i < cut; i++ {
		if err := pub.Publish(part[i]); err != nil {
			return err
		}
	}
	if kill {
		// Die without closing the epoch, mid-campaign, with batches
		// possibly in flight; then restart.
		for deadline := time.Now().Add(5 * time.Second); ; {
			st := pub.Stats()
			if st.Acked == st.Batches || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		pub.Abort()
		pub, err = NewPublisher(addr, id, producers, withPublishMaxBatch(64))
		if err != nil {
			return err
		}
		if pub.Epoch() < 2 {
			return fmt.Errorf("producer %s: restart stayed in epoch %d", id, pub.Epoch())
		}
		skip := int(pub.SkipEvents())
		if skip > cut {
			return fmt.Errorf("producer %s: broker claims %d durable events, only %d were published", id, skip, cut)
		}
		for i := skip; i < len(part); i++ {
			if err := pub.Publish(part[i]); err != nil {
				return err
			}
		}
	}
	return pub.Close()
}
