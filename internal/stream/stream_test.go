package stream

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"sybilwild/internal/osn"
)

func testEvent(i int) osn.Event {
	return osn.Event{Type: osn.EvFriendRequest, At: int64(i), Actor: 1, Target: osn.AccountID(i)}
}

func TestWireRoundTrip(t *testing.T) {
	evs := []osn.Event{
		{Type: osn.EvFriendRequest, At: 10, Actor: 1, Target: 2},
		{Type: osn.EvFriendAccept, At: 11, Actor: 2, Target: 1},
		{Type: osn.EvFriendReject, At: 12, Actor: 3, Target: 1},
		{Type: osn.EvMessage, At: 13, Actor: 1, Target: 4},
		{Type: osn.EvBan, At: 14, Target: 1},
	}
	for _, ev := range evs {
		got, err := FromOSN(ev).ToOSN()
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		if got != ev {
			t.Fatalf("round trip: %+v != %+v", got, ev)
		}
	}
}

func TestWireUnknownType(t *testing.T) {
	if _, err := (WireEvent{Type: "bogus"}).ToOSN(); err == nil {
		t.Fatal("expected error for unknown type")
	}
}

// TestBatchCodecAgreesWithJSON pins the hand-rolled batch fast path to
// the encoding/json semantics of the same frame: the canonical encoder
// must produce valid JSON that the reflection path decodes to the
// same events, and the fast parser must decode the canonical bytes to
// the same events again.
func TestBatchCodecAgreesWithJSON(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendRequest, At: 0, Actor: 0, Target: 0},
		{Type: osn.EvFriendAccept, At: 123456789012, Actor: 2147483647, Target: -5},
		{Type: osn.EvBlogShare, At: -3, Actor: 7, Target: 9, Aux: 42},
		{Type: osn.EvBan, At: 14, Target: 1, Aux: -1},
		{Type: osn.EvMessage, At: 5, Actor: 3, Target: 4},
	}
	for n := 0; n <= len(events); n++ {
		payload := appendBatchFrame(nil, 99, events[:n])
		if !json.Valid(payload) {
			t.Fatalf("canonical batch is not valid JSON: %s", payload)
		}
		seqSlow, evsSlow, err := parseBatchSlow(payload, nil)
		if err != nil {
			t.Fatalf("slow parse: %v", err)
		}
		seqFast, evsFast, ok := parseBatchFrame(payload, nil)
		if !ok {
			t.Fatalf("fast parser rejected canonical bytes: %s", payload)
		}
		if seqSlow != 99 || seqFast != 99 {
			t.Fatalf("seq: slow=%d fast=%d", seqSlow, seqFast)
		}
		if !reflect.DeepEqual(evsSlow, evsFast) ||
			(n > 0 && !reflect.DeepEqual(evsFast, events[:n])) {
			t.Fatalf("decode mismatch at n=%d:\nslow %+v\nfast %+v", n, evsSlow, evsFast)
		}
	}
}

// TestBatchParserFallsBack feeds the fast parser non-canonical but
// valid frames; it must refuse them (the slow path then handles them)
// rather than mis-parse.
func TestBatchParserFallsBack(t *testing.T) {
	for _, payload := range []string{
		`{"seq":1,"t":"batch","events":[]}`,                               // key order
		`{"t":"batch","seq":1,"events":[{"at":1,"type":"ban"}]}`,          // event key order
		`{"t": "batch","seq":1,"events":[]}`,                              // whitespace
		`{"t":"batch","seq":1,"events":[{"type":"\u0062an","at":1}]}`,     // escapes
		`{"t":"ack","ack":4}`,                                             // different frame
		`{"t":"batch","seq":1,"events":[{"type":"nope","at":1}]} `,        // unknown type
		`{"t":"batch","seq":1,"events":[{"type":"ban","at":1}],"x":true}`, // trailing key
	} {
		if _, _, ok := parseBatchFrame([]byte(payload), nil); ok {
			t.Fatalf("fast parser accepted non-canonical payload: %s", payload)
		}
	}
	// The slow path must still handle a reordered batch correctly.
	seq, evs, err := parseBatchSlow([]byte(`{"seq":7,"events":[{"at":1,"type":"ban","target":3}],"t":"batch"}`), nil)
	if err != nil || seq != 7 || len(evs) != 1 || evs[0].Type != osn.EvBan || evs[0].Target != 3 {
		t.Fatalf("slow parse of reordered batch: seq=%d evs=%+v err=%v", seq, evs, err)
	}
}

func waitClients(t testing.TB, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.NumClients() < n {
		if time.Now().After(deadline) {
			t.Fatalf("clients never reached %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerClientDelivery(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 1000
	for i := 0; i < n; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	for i := 0; i < n; i++ {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ev.At != int64(i) || ev.Target != osn.AccountID(i) {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
	if got := c.LastSeq(); got != n {
		t.Fatalf("LastSeq = %d, want %d", got, n)
	}
	if st := s.Stats(); st.Broadcast != n || st.Evicted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultipleSubscribers(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	s.BroadcastBatch([]osn.Event{testEvent(7)})
	for i, c := range clients {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if ev.At != 7 {
			t.Fatalf("client %d got %+v", i, ev)
		}
	}
}

func TestLateSubscriberStartsAtCurrentSeq(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.BroadcastBatch([]osn.Event{testEvent(1)})
	s.BroadcastBatch([]osn.Event{testEvent(2)})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.BroadcastBatch([]osn.Event{testEvent(3)})
	ev, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.At != 3 {
		t.Fatalf("late subscriber saw %+v, want the post-handshake event", ev)
	}
	if c.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3 (global sequence, not per-client count)", c.LastSeq())
	}
}

func TestRecvAfterServerClose(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }() // returns once the client hangs up
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// And it stays closed.
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second recv err = %v, want ErrClosed", err)
	}
	c.Close()
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCloseDrainsPendingWindow: events broadcast but not yet read must
// survive Close — the window drains to the subscriber before the eof
// frame, so nothing is lost at shutdown.
func TestCloseDrainsPendingWindow(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 5000
	for i := 0; i < n; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	for i := 0; i < n; i++ {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ev.At != int64(i) {
			t.Fatalf("event %d: got At=%d", i, ev.At)
		}
	}
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drain: err = %v, want ErrClosed", err)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestStallingSubscriberLosesNothing is the at-least-once acceptance
// test: a subscriber that stalls longer than the replay window would
// have lost events under the v1 drop-oldest feed. Under v2 the
// producer blocks until the subscriber drains, and every event arrives
// exactly once, in order.
func TestStallingSubscriberLosesNothing(t *testing.T) {
	const window = 64
	s, err := NewServer("127.0.0.1:0",
		WithReplayBuffer(window), WithMaxBatch(16), WithStallTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const total = window * 40 // far beyond the replay window
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < total; i++ {
			s.BroadcastBatch([]osn.Event{testEvent(i)}) // blocks while the subscriber stalls
		}
	}()

	// Read a little, then stall long enough for the producer to slam
	// into the full window, then drain.
	for i := 0; i < 10; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	time.Sleep(300 * time.Millisecond)

	for i := 10; i < total; i++ {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ev.At != int64(i) {
			t.Fatalf("lost or reordered: event %d has At=%d", i, ev.At)
		}
	}
	<-sent
	if st := s.Stats(); st.Evicted != 0 || st.Broadcast != total {
		t.Fatalf("stats after stall = %+v", st)
	}
}

// TestStalledBeyondTimeoutIsEvicted: the liveness backstop. A
// connected subscriber that never drains is evicted after the stall
// timeout — loudly, in Stats — instead of wedging the feed forever.
func TestStalledBeyondTimeoutIsEvicted(t *testing.T) {
	s, err := NewServer("127.0.0.1:0",
		WithReplayBuffer(8), WithStallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitClients(t, s, 1)
	start := time.Now()
	for i := 0; i < 1000; i++ { // never read: window fills, then eviction
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("broadcast wedged for %v despite stall timeout", d)
	}
	if st := s.Stats(); st.Evicted != 1 {
		t.Fatalf("stats = %+v, want exactly one eviction", st)
	}
}

func TestSubscribeDeliversAndEnds(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan osn.Event, 16)
	done := make(chan error, 1)
	go func() {
		done <- Subscribe(s.Addr(), func(ev osn.Event) { got <- ev }, 3)
	}()
	waitClients(t, s, 1)
	s.BroadcastBatch([]osn.Event{testEvent(1)})
	select {
	case ev := <-got:
		if ev.At != 1 {
			t.Fatalf("got %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for event")
	}
	s.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("subscribe ended with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscribe did not end after server close")
	}
}

func TestSubscribeBatchDeliversInOrder(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", WithMaxBatch(32))
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	var seen []int64
	done := make(chan error, 1)
	batches := 0
	go func() {
		done <- SubscribeBatch(s.Addr(), func(evs []osn.Event) {
			batches++
			for _, ev := range evs {
				seen = append(seen, ev.At)
			}
		}, 3)
	}()
	waitClients(t, s, 1)
	for i := 0; i < n; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	s.Close()
	if err := <-done; err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if len(seen) != n {
		t.Fatalf("delivered %d events, want %d", len(seen), n)
	}
	for i, at := range seen {
		if at != int64(i) {
			t.Fatalf("event %d has At=%d", i, at)
		}
	}
	if batches >= n {
		t.Fatalf("no batching: %d batches for %d events", batches, n)
	}
}

func TestSubscribeFailsWhenNoServer(t *testing.T) {
	err := Subscribe("127.0.0.1:1", func(osn.Event) {}, 1)
	if err == nil {
		t.Fatal("expected dial failure")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestServerDoubleClose(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestConcurrentBroadcasters(t *testing.T) {
	// Broadcast must be safe from multiple goroutines (e.g. several
	// simulation shards feeding one server) and still assign a single
	// gapless sequence.
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const writers, per = 8, 200
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			for i := 0; i < per; i++ {
				s.BroadcastBatch([]osn.Event{testEvent(w*per + i)})
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	for seen := 0; seen < writers*per; seen++ {
		if _, err := c.Recv(); err != nil {
			t.Fatalf("recv after %d: %v", seen, err)
		}
	}
	if c.LastSeq() != writers*per {
		t.Fatalf("LastSeq = %d, want %d", c.LastSeq(), writers*per)
	}
}

// TestDeliveredAccounting: the ack plumbing must account every event
// the subscriber consumed, so sent-vs-delivered is auditable from the
// server side (what examples/realtime reports).
func TestDeliveredAccounting(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	for i := 0; i < n; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close() // final ack flushes on close
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Delivered == n {
			if st.Broadcast != n {
				t.Fatalf("stats = %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered never reached %d: %+v", n, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}
