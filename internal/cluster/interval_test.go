package cluster_test

import (
	"testing"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/stream"
)

// tailWindow is these tests' tail: 2048 feed events, a small fraction
// of the campaign.
const tailWindow = 2048

// tailServer is a broker with a tailWindow tail, spooling privately.
func tailServer(t *testing.T) *stream.Server {
	t.Helper()
	srv, err := stream.NewServer("127.0.0.1:0", stream.WithReplayBuffer(tailWindow))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// runIntervalFeed starts a handoff worker for partition part of parts
// on srv, its save interval out of reach; publishes events one by one;
// ends the feed; and checks that the worker applied every event
// delivered to it, through the feed's last sequence, and that no
// session was evicted. It returns the worker, after Wait.
func runIntervalFeed(t *testing.T, srv *stream.Server, part, parts int, events []osn.Event, rule detector.Rule) *cluster.Worker {
	t.Helper()
	w, err := cluster.Start(cluster.Config{Addr: srv.Addr(), Part: part, Parts: parts, Rule: rule,
		CheckEvery: 3, Handoff: true, Every: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	owed := 0
	for _, ev := range events {
		srv.BroadcastBatch([]osn.Event{ev})
		if osn.PartitionDelivers(ev, part, parts) {
			owed++
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := w.Pipeline().Seq(); got != uint64(len(events)) {
		t.Fatalf("worker ended at seq %d, the feed at %d", got, len(events))
	}
	if got := w.Stats().Events; got != owed {
		t.Fatalf("worker applied %d events, the feed delivered %d", got, owed)
	}
	if ev := srv.Stats().Evicted; ev != 0 {
		t.Fatalf("evicted = %d, want 0", ev)
	}
	return w
}

// TestSpooledBrokerOffersOnIntervalOnly: no broker waits for a
// worker's acks, so a handoff worker whose interval is out of reach
// makes no offer before the feed ends, over a feed many tails long.
func TestSpooledBrokerOffersOnIntervalOnly(t *testing.T) {
	events, rule, _ := restoreFeed(t)
	if len(events) < 10*tailWindow {
		t.Fatalf("feed of %d events is under ten tails", len(events))
	}
	srv := tailServer(t)
	w := runIntervalFeed(t, srv, 0, 0, events, rule)
	if st := w.Stats(); st.Offers != 0 || heldSnapshot(srv, 0, 1) != 0 {
		t.Fatalf("worker made %d offers (broker holds seq %d), want none before the interval",
			st.Offers, heldSnapshot(srv, 0, 1))
	}
}

// TestForeignRunLongerThanTail: a partitioned handoff worker whose
// feed runs more than three tails through accounts it does not own
// receives only cursor advances there, and acks none of them before
// its interval. The producer runs on regardless, and the worker still
// judges every event delivered to it, through the feed's end.
func TestForeignRunLongerThanTail(t *testing.T) {
	events, rule, _ := restoreFeed(t)
	const part, parts = 0, 2
	var foreign []osn.AccountID
	for id := osn.AccountID(0); len(foreign) < 2; id++ {
		if osn.Partition(id, parts) != part {
			foreign = append(foreign, id)
		}
	}
	half := len(events) / 2
	feed := append([]osn.Event(nil), events[:half]...)
	for range 3*tailWindow + tailWindow/2 {
		ev := osn.Event{Type: osn.EvFriendRequest, At: events[half-1].At, Actor: foreign[0], Target: foreign[1]}
		if osn.PartitionDelivers(ev, part, parts) {
			t.Fatal("the foreign run reaches the partition")
		}
		feed = append(feed, ev)
	}
	feed = append(feed, events[half:]...)
	runIntervalFeed(t, tailServer(t), part, parts, feed, rule)
}
