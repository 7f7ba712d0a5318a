package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/wire"
)

func testEvent(i int) osn.Event {
	return osn.Event{Type: osn.EvFriendRequest, At: int64(i), Actor: 1, Target: osn.AccountID(i)}
}

// TestWireRoundTrip: every event type, with each field at its
// extremes, crosses a server → client hop unchanged.
func TestWireRoundTrip(t *testing.T) {
	evs := []osn.Event{
		{Type: osn.EvFriendRequest, At: 10, Actor: 1, Target: 2},
		{Type: osn.EvFriendAccept, At: 11, Actor: 2, Target: 1},
		{Type: osn.EvFriendReject, At: math.MinInt64, Actor: math.MinInt32, Target: math.MaxInt32},
		{Type: osn.EvMessage, At: math.MaxInt64, Actor: 1, Target: 4, Aux: -1},
		{Type: osn.EvBan, At: 14, Target: 1},
		{Type: osn.EvBlogPost, At: -3, Actor: 5, Aux: math.MaxInt32},
		{Type: osn.EvBlogShare, At: 0, Actor: 6, Target: 5, Aux: math.MinInt32},
	}
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
	s.BroadcastBatch(evs)
	for _, want := range evs {
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip: %+v != %+v", got, want)
		}
	}
}

// frameFeeder is a hand-driven broker: it answers every subscriber
// hello with a welcome from sequence 1, sends frames, and holds the
// connection until the subscriber hangs up. accepts counts the
// connections it served.
func frameFeeder(t *testing.T, frames ...[]byte) (addr string, accepts *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts = new(atomic.Int32)
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := readFrame(br, nil); err != nil { // hello
					return
				}
				writeControl(conn, frame{T: frameWelcome, V: ProtocolVersion, From: 1})
				for _, f := range frames {
					writeFrame(conn, f)
				}
				io.Copy(io.Discard, br) // acks, until the subscriber hangs up
			}()
		}
	}()
	return ln.Addr().String(), accepts
}

// TestWireUnknownType: a batch carrying an event type this build does
// not know is refused — it does not decode, and the subscription ends
// terminally with ErrBadFrame rather than skipping the event or
// resuming into it again.
func TestWireUnknownType(t *testing.T) {
	leakCheck(t)
	addr, accepts := frameFeeder(t,
		wire.AppendBatch(nil, 1, []osn.Event{testEvent(1)}),
		wire.AppendBatch(nil, 2, []osn.Event{testEvent(2), {Type: osn.EvCutover + 1, At: 3}}))
	var got []osn.Event
	err := SubscribeBatch(addr, func(evs []osn.Event) { got = append(got, evs...) }, 3)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("SubscribeBatch = %v, want ErrBadFrame", err)
	}
	if len(got) != 1 || got[0] != testEvent(1) {
		t.Fatalf("delivered %+v, want only the decodable first batch", got)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("subscriber connected %d times; an undecodable frame is terminal, not a reason to resume", n)
	}
}

// TestClientRefusesUndecodableFrames: whatever a feed sends that does
// not decode — a v2 JSON batch or fbatch, even a canonical one, a
// frame cut short, an fbatch whose cursor is behind its own events, or
// a control frame with no place mid-stream — ends the subscription
// with ErrBadFrame, and every later receive returns the same error.
func TestClientRefusesUndecodableFrames(t *testing.T) {
	leakCheck(t)
	good := wire.AppendBatch(nil, 1, []osn.Event{testEvent(1), testEvent(2)})
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"v2 batch", []byte(`{"t":"batch","seq":3,"events":[{"type":"ban","at":1,"actor":0,"target":0}]}`)},
		{"v2 fbatch", []byte(`{"t":"fbatch","last":3,"events":[{"seq":3,"type":"ban","at":1,"actor":0,"target":0,"aux":0}]}`)},
		{"cut short", good[:len(good)-1]},
		{"cursor behind events", wire.AppendFBatch(nil, 2, []uint64{3}, []osn.Event{testEvent(3)})},
		{"ack mid-stream", []byte(`{"t":"ack","ack":4}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, _ := frameFeeder(t, good, tc.payload)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if evs, err := c.RecvBatch(); err != nil || len(evs) != 2 {
				t.Fatalf("first batch: %d events, %v", len(evs), err)
			}
			for i := 0; i < 2; i++ {
				if _, err := c.RecvBatch(); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("receive %d after the bad frame: %v, want ErrBadFrame", i, err)
				}
			}
			if c.LastSeq() != 2 {
				t.Fatalf("cursor moved to %d past the bad frame", c.LastSeq())
			}
		})
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
// test: a subscriber that stalls while the feed runs far past the tail
// would have lost events under the v1 drop-oldest feed. Now the tail
// drops them onto the spool — a private one here — and every event
// arrives exactly once, in order.
func TestStallingSubscriberLosesNothing(t *testing.T) {
	const window = 64
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(window), withMaxBatch(16))
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
			s.BroadcastBatch([]osn.Event{testEvent(i)})
		}
	}()

	// Read a little, then stall long enough for the producer to run
	// past the tail, then drain.
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

// TestProducerNeverWaitsOnAStalledReader: a server given no spool
// spools privately, so a subscriber that stops reading and acking holds
// no producer up. Four tails' worth of events are published while it
// stalls, within a bound far above what publishing them takes; the
// subscriber then reads on and gets every event exactly once, in
// order, with nobody evicted.
func TestProducerNeverWaitsOnAStalledReader(t *testing.T) {
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
	waitClients(t, s, 1)

	const total = 4 * DefaultReplayBuffer
	published := make(chan struct{})
	go func() {
		defer close(published)
		evs := make([]osn.Event, DefaultMaxBatch)
		for off := 0; off < total; off += len(evs) {
			for i := range evs {
				evs[i] = testEvent(off + i)
			}
			s.BroadcastBatch(evs)
		}
	}()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		t.Fatal("the producer is still waiting on a stalled subscriber after 10 s")
	}

	for i := 0; i < total; i++ {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ev.At != int64(i) {
			t.Fatalf("lost, repeated or reordered: event %d has At=%d", i, ev.At)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after every event: err = %v, want ErrClosed", err)
	}
	c.Close() // lets Close return without waiting out the drain deadline
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evicted != 0 || st.Broadcast != total || st.Delivered != total {
		t.Fatalf("stats = evicted %d, broadcast %d, delivered %d; want 0, %d, %d", st.Evicted, st.Broadcast, st.Delivered, total, total)
	}
}

// TestChunkLargerThanTailAccepted: a frame bigger than the whole tail
// is still accepted — the tail always keeps its newest chunk — so a
// tail smaller than maxBatch neither wedges the producer nor loses the
// subscriber anything.
func TestChunkLargerThanTailAccepted(t *testing.T) {
	leakCheck(t)
	const window, batch, batches = 8, 100, 20
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(window))
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
	done := make(chan error, 1)
	go func() {
		for i := 0; i < batch*batches; i++ {
			ev, err := c.Recv()
			if err == nil && ev.At != int64(i) {
				err = fmt.Errorf("event %d has At=%d", i, ev.At)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	evs := make([]osn.Event, batch)
	start := time.Now()
	for b := 0; b < batches; b++ {
		for i := range evs {
			evs[i] = testEvent(b*batch + i)
		}
		s.BroadcastBatch(evs)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("oversized chunks took %v", d)
	}
	if st := s.Stats(); st.Evicted != 0 || st.Broadcast != batch*batches {
		t.Fatalf("stats = %+v", st)
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
		done <- SubscribeBatch(s.Addr(), func(evs []osn.Event) {
			for _, ev := range evs {
				got <- ev
			}
		}, 3)
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
	s, err := NewServer("127.0.0.1:0", withMaxBatch(32))
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
	err := SubscribeBatch("127.0.0.1:1", func([]osn.Event) {}, 1)
	if err == nil {
		t.Fatal("expected dial failure")
	}
}

// TestSubscribeBatchEndsWhenItsKeyIsTakenOver: a hand-driven broker, in
// frameFeeder's style, admits a partitioned subscriber, drops the
// connection, then refuses every resume as held: another session owns
// the key now. A SubscribeBatch reads that refusal through its kernel's
// table (Kernel.Refused) as a worker does, so it ends at the first
// refused resume with an error wrapping ErrHeld instead of redialing
// through its retries.
func TestSubscribeBatchEndsWhenItsKeyIsTakenOver(t *testing.T) {
	leakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int32
	broker := make(chan struct{})
	go func() {
		defer close(broker)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := readFrame(bufio.NewReader(conn), nil); err == nil { // the hello
				if accepts.Add(1) == 1 {
					writeControl(conn, frame{T: frameWelcome, V: ProtocolVersion, From: 1})
				} else {
					writeControl(conn, frame{T: frameWelcome, V: ProtocolVersion, Class: classHeld, Err: "partition key held by another session"})
				}
			}
			conn.Close()
		}
	}()
	defer func() { ln.Close(); <-broker }()
	const maxRetries = 3
	err = SubscribeBatch(ln.Addr().String(), func([]osn.Event) {}, maxRetries, WithPartition(0, 2))
	if !errors.Is(err, ErrHeld) {
		t.Fatalf("SubscribeBatch = %v, want an error wrapping ErrHeld", err)
	}
	if n := accepts.Load(); n != 2 {
		t.Fatalf("broker answered %d hellos; want 2: the admission and the one refused resume", n)
	}
}

// TestPrivateSpoolLeavesNothingBehind: a broker opened without WithSpool
// spools into a temporary directory of its own and removes it when it
// ends, by Close and by Abort alike.
func TestPrivateSpoolLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, end := range []string{"Close", "Abort"} {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s.BroadcastBatch([]osn.Event{testEvent(1), testEvent(2)})
		if dirs, _ := filepath.Glob(filepath.Join(tmp, "stream-spool-*")); len(dirs) != 1 {
			t.Fatalf("%s: the running broker spools in %q, want one private spool", end, dirs)
		}
		if end == "Close" {
			s.Close()
		} else {
			s.Abort()
		}
		if dirs, _ := filepath.Glob(filepath.Join(tmp, "stream-spool-*")); len(dirs) != 0 {
			t.Errorf("after %s: %q left behind", end, dirs)
		}
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
