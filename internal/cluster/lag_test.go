package cluster_test

import (
	"testing"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// lagWindow is the lag tests' tail: 2048 feed events, whose derived
// lag is 1024.
const lagWindow = 2048

// lagServer is a broker with a lagWindow tail, memory-only or spooled.
func lagServer(t *testing.T, spooled bool) *stream.Server {
	t.Helper()
	opts := []stream.ServerOption{stream.WithReplayBuffer(lagWindow)}
	if spooled {
		sp, err := spool.Open(t.TempDir(), spool.WithSegmentBytes(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sp.Close() })
		opts = append(opts, stream.WithSpool(sp))
	}
	srv, err := stream.NewServer("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// runLagFeed starts a handoff worker for partition part of parts on
// srv, its interval out of reach and no lag override, so only the
// broker's welcome sets its offers; publishes events one by one; ends
// the feed; and checks that the worker applied every event delivered
// to it, through the feed's last sequence, and that no session was
// evicted. It returns the worker, after Wait.
func runLagFeed(t *testing.T, srv *stream.Server, part, parts int, events []osn.Event, rule detector.Rule) *cluster.Worker {
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
		t.Fatalf("evicted = %d, want 0: the worker held the producer back", ev)
	}
	return w
}

// TestMemoryOnlyBrokerSetsOfferLag: a memory-only broker reports its
// tail in the welcome, and a whole-feed handoff worker offers every
// half tail (1024 events here), so a feed many tails long flows
// without waiting on the interval or a stall eviction.
func TestMemoryOnlyBrokerSetsOfferLag(t *testing.T) {
	events, rule, _ := restoreFeed(t)
	if len(events) < 10*lagWindow {
		t.Fatalf("feed of %d events is under ten tails", len(events))
	}
	w := runLagFeed(t, lagServer(t, false), 0, 0, events, rule)
	const lag = 1024
	if got := w.OfferLag(); got != lag {
		t.Fatalf("worker's lag is %d, want %d from a %d-event tail", got, lag, lagWindow)
	}
	// An offer fires at the first batch reaching a lag past the last one:
	// a lag to a lag plus one batch apart.
	n := len(events)
	if got, lo, hi := w.Stats().Offers, n/(lag+stream.DefaultMaxBatch), n/lag; got < lo || got > hi {
		t.Fatalf("%d offers over %d events, want %d to %d: one about every %d events", got, n, lo, hi, lag)
	}
}

// TestSpooledBrokerOffersOnIntervalOnly: a spooled broker's tail never
// waits for acks, so its welcome reports none, and the same worker
// makes no offer before the feed ends.
func TestSpooledBrokerOffersOnIntervalOnly(t *testing.T) {
	events, rule, _ := restoreFeed(t)
	srv := lagServer(t, true)
	w := runLagFeed(t, srv, 0, 0, events, rule)
	if got := w.OfferLag(); got != 0 {
		t.Fatalf("worker's lag is %d against a spooled broker, want 0", got)
	}
	if st := w.Stats(); st.Offers != 0 || heldSnapshot(srv, 0, 1) != 0 {
		t.Fatalf("worker made %d offers (broker holds seq %d), want none before the interval",
			st.Offers, heldSnapshot(srv, 0, 1))
	}
}

// TestForeignRunLongerThanTail: a partitioned handoff worker whose
// feed runs more than three tails through accounts it does not own
// receives only cursor advances there. Each one reaches the worker as
// an empty batch and runs its lag trigger, so it offers and acks
// through the run, and the memory-only producer is never held until
// stall eviction.
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
	for range 3*lagWindow + lagWindow/2 {
		ev := osn.Event{Type: osn.EvFriendRequest, At: events[half-1].At, Actor: foreign[0], Target: foreign[1]}
		if osn.PartitionDelivers(ev, part, parts) {
			t.Fatal("the foreign run reaches the partition")
		}
		feed = append(feed, ev)
	}
	feed = append(feed, events[half:]...)
	runLagFeed(t, lagServer(t, false), part, parts, feed, rule)
}
