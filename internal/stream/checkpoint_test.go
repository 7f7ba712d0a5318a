package stream

import (
	"errors"
	"testing"
	"time"

	"sybilwild/internal/osn"
)

// waitStats polls the server until cond is satisfied by a stats
// snapshot (acks travel the wire asynchronously).
func waitStats(t *testing.T, s *Server, what string, cond func(ServerStats) bool) ServerStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManualAckPinsWindowToCheckpoints is the checkpointed-consumer
// contract at stream level: in manual-ack mode delivery does not trim
// the server's replay window — only explicit Ck acks do — so a crash
// after delivery but before checkpoint can still resume from the last
// acked (checkpointed) sequence and replay the difference.
func TestManualAckPinsWindowToCheckpoints(t *testing.T) {
	const total = 120
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(total+16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.SetManualAck(true)
	for i := 0; i < total; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	for i := 0; i < total; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	// Everything delivered, nothing acked: the window must still hold
	// all of it.
	st := s.Stats()
	if len(st.PerSession) != 1 || st.PerSession[0].Buffered != total || st.PerSession[0].Behind != total {
		t.Fatalf("manual-ack session trimmed without an ack: %+v", st.PerSession)
	}

	// "Checkpoint" at sequence 40: ack it and watch the window trim to
	// exactly the unacked remainder.
	if err := c.Ack(40); err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, "ack 40 to trim", func(st ServerStats) bool {
		return len(st.PerSession) == 1 && st.PerSession[0].Acked == 40 && st.PerSession[0].Buffered == total-40
	})

	// Crash after delivering all 120 with only 40 checkpointed: resume
	// from 41 must replay 41..120.
	c.Kick()
	c2, err := DialResume(s.Addr(), c.Session(), 41)
	if err != nil {
		t.Fatalf("resume from checkpoint: %v", err)
	}
	defer c2.Close()
	for i := 40; i < total; i++ {
		ev, err := c2.Recv()
		if err != nil {
			t.Fatalf("replay recv %d: %v", i, err)
		}
		if ev.At != int64(i) {
			t.Fatalf("replay event %d: At=%d, want %d", i, ev.At, i)
		}
	}
}

// TestManualAckCloseDoesNotAck: Close in manual mode must not push
// the server's cursor past the last explicit ack (a graceful exit
// before the final checkpoint would otherwise break crash recovery).
func TestManualAckCloseDoesNotAck(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.SetManualAck(true)
	for i := 0; i < 10; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	waitDetached(t, s)
	if st := s.Stats(); len(st.PerSession) != 1 || st.PerSession[0].Acked != 0 {
		t.Fatalf("manual-ack Close acked: %+v", st.PerSession)
	}
}

// TestPerSessionLagOrdering: the slowest consumer sorts first, with
// lag measured both as events behind the head and as feed events
// buffered in the tail above its acks, so the operator can spot who is
// falling behind. Buffered counts feed events for a partitioned
// consumer too: the foreign events it was never sent count exactly as
// its own do.
func TestPerSessionLagOrdering(t *testing.T) {
	const window, K = 64, 2
	owned, foreign := actorIn(t, 0, K), actorIn(t, 1, K)
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(window))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	fast, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	slow, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slow.SetManualAck(true) // consumes but never acks: lag accumulates
	part, err := Dial(s.Addr(), WithPartition(0, K))
	if err != nil {
		t.Fatal(err)
	}
	defer part.Close()
	part.SetManualAck(true) // acks only half-way: less lag than slow, more than fast
	waitClients(t, s, 3)

	const n = 48 // even sequences are foreign to partition 0
	for i := 0; i < n; i++ {
		actor := owned
		if i%2 == 1 {
			actor = foreign
		}
		s.BroadcastBatch([]osn.Event{{Type: osn.EvMessage, At: int64(i), Actor: actor, Target: actor}})
	}
	for i := 0; i < n; i++ {
		if _, err := fast.Recv(); err != nil {
			t.Fatal(err)
		}
		if _, err := slow.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/2; i++ {
		if _, err := part.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	// One more Recv on fast would block; force its acks out instead.
	fast.flushAcks()
	if err := part.Ack(n / 2); err != nil {
		t.Fatal(err)
	}

	st := waitStats(t, s, "fast session to drain", func(st ServerStats) bool {
		return len(st.PerSession) == 3 && st.PerSession[2].Behind == 0 && st.PerSession[1].Acked == n/2
	})
	if mid := st.PerSession[1]; mid.ID != part.Session() || mid.Behind != n/2 || mid.Buffered != n/2 {
		t.Fatalf("partitioned session lag = %+v, want behind=%d buffered=%d (feed events, not the %d it owns)",
			mid, n/2, n/2, n/4)
	}
	worst := st.PerSession[0]
	if worst.ID != slow.Session() {
		t.Fatalf("worst-lagging session is %q, want the slow one %q", worst.ID, slow.Session())
	}
	if worst.Behind != n || worst.Buffered != n {
		t.Fatalf("slow session lag = %+v, want behind=%d buffered=%d", worst, n, n)
	}
	if !worst.Connected {
		t.Fatal("slow session should report connected")
	}
}

// TestInterruptAllowsFinalAck: Interrupt fails the pending read but
// keeps the connection good for a last Ack — the graceful-shutdown
// path, where the final checkpoint must still be acknowledged.
func TestInterruptAllowsFinalAck(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.SetManualAck(true)
	for i := 0; i < 10; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		c.Interrupt()
	}()
	if _, err := c.Recv(); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("recv survived interrupt: err = %v", err)
	}
	if err := c.Ack(10); err != nil {
		t.Fatalf("ack after interrupt: %v", err)
	}
	waitStats(t, s, "final ack to land", func(st ServerStats) bool {
		return len(st.PerSession) == 1 && st.PerSession[0].Acked == 10
	})
	c.Close()
}

// TestKickIsResumable: Kick severs without acking or ending the
// session; a DialResume picks up where delivery stopped.
func TestKickIsResumable(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	s.BroadcastBatch([]osn.Event{testEvent(0)})
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	c.Kick()
	if _, err := c.Recv(); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("recv after kick: err = %v, want connection loss", err)
	}
	c2, err := DialResume(s.Addr(), c.Session(), c.LastSeq()+1)
	if err != nil {
		t.Fatalf("resume after kick: %v", err)
	}
	defer c2.Close()
	s.BroadcastBatch([]osn.Event{testEvent(1)})
	ev, err := c2.Recv()
	if err != nil || ev.At != 1 {
		t.Fatalf("post-kick resume recv = %v, %v", ev, err)
	}
}
