package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
)

// partEvents builds a deterministic pseudo-random event stream whose
// actors, targets and types spread across partitions, exercising every
// branch of the delivery contract (owned, replicated accepts,
// target-routed requests and bans, foreign).
func partEvents(n int, seed int64) []osn.Event {
	rng := rand.New(rand.NewSource(seed))
	types := []osn.EventType{
		osn.EvFriendRequest, osn.EvFriendAccept, osn.EvFriendReject,
		osn.EvMessage, osn.EvBan, osn.EvBlogPost, osn.EvBlogShare,
	}
	evs := make([]osn.Event, n)
	for i := range evs {
		evs[i] = osn.Event{
			Type:   types[rng.Intn(len(types))],
			At:     int64(i),
			Actor:  osn.AccountID(rng.Intn(200)),
			Target: osn.AccountID(rng.Intn(200)),
		}
	}
	return evs
}

// wantSeqs returns the global sequences partition part of parts
// receives when evs are broadcast as sequences 1..len(evs) — the
// oracle every partitioned-delivery test checks against.
func wantSeqs(evs []osn.Event, part, parts int) []uint64 {
	var out []uint64
	for i, ev := range evs {
		if osn.PartitionDelivers(ev, part, parts) {
			out = append(out, uint64(i+1))
		}
	}
	return out
}

// actorIn finds an account id the given partition owns.
func actorIn(t *testing.T, part, parts int) osn.AccountID {
	t.Helper()
	for id := osn.AccountID(1); id < 10000; id++ {
		if osn.Partition(id, parts) == part {
			return id
		}
	}
	t.Fatalf("no account id in partition %d/%d within 10000", part, parts)
	return 0
}

// TestPartitionedDeliveryMatchesContract is the broker-side half of
// the partition-filtering property: K subscribers each taking one
// slice of the same feed must receive exactly the events
// osn.PartitionDelivers assigns them — same order, same per-event
// global sequences — and every subscriber's cursor must end at the
// feed head even though none of them saw every event.
func TestPartitionedDeliveryMatchesContract(t *testing.T) {
	leakCheck(t)
	const K, total = 3, 2000
	evs := partEvents(total, 1)
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	clients := make([]*Client, K)
	for p := 0; p < K; p++ {
		c, err := Dial(s.Addr(), WithPartition(p, K))
		if err != nil {
			t.Fatalf("dial partition %d: %v", p, err)
		}
		defer c.Close()
		clients[p] = c
	}
	waitClients(t, s, K)

	type result struct {
		evs  []osn.Event
		seqs []uint64
		last uint64
		err  error
	}
	results := make([]result, K)
	var wg sync.WaitGroup
	for p, c := range clients {
		wg.Add(1)
		go func(p int, c *Client) {
			defer wg.Done()
			r := &results[p]
			for {
				batch, err := c.RecvBatch()
				if errors.Is(err, ErrClosed) {
					// Hang up at eof, so Close need not wait out the drain
					// timeout on this connection.
					r.last = c.LastSeq()
					c.Close()
					return
				}
				if err != nil {
					r.err = err
					return
				}
				seqs := c.LastBatchSeqs()
				if len(seqs) != len(batch) {
					r.err = fmt.Errorf("LastBatchSeqs has %d entries for a %d-event batch", len(seqs), len(batch))
					return
				}
				r.evs = append(r.evs, batch...)
				r.seqs = append(r.seqs, seqs...)
			}
		}(p, c)
	}

	for _, ev := range evs {
		s.BroadcastBatch([]osn.Event{ev})
	}
	s.Close() // drains every window, then eof
	wg.Wait()

	for p := 0; p < K; p++ {
		r := results[p]
		if r.err != nil {
			t.Fatalf("partition %d: %v", p, r.err)
		}
		want := wantSeqs(evs, p, K)
		if len(r.seqs) != len(want) {
			t.Fatalf("partition %d received %d events, contract says %d", p, len(r.seqs), len(want))
		}
		for i, seq := range r.seqs {
			if seq != want[i] {
				t.Fatalf("partition %d event %d has seq %d, want %d", p, i, seq, want[i])
			}
			if r.evs[i] != evs[seq-1] {
				t.Fatalf("partition %d seq %d carries %+v, broadcast was %+v", p, seq, r.evs[i], evs[seq-1])
			}
		}
		if r.last != total {
			t.Fatalf("partition %d cursor ended at %d, want the feed head %d", p, r.last, total)
		}
	}
}

// TestPartitionedRecvSingleEvents drives the per-event Recv path over
// a filtered subscription: each delivered event must advance LastSeq
// to at least its own global sequence, and the filtered stream must
// match the contract exactly.
func TestPartitionedRecvSingleEvents(t *testing.T) {
	leakCheck(t)
	const K, total = 2, 800
	evs := partEvents(total, 2)
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), WithPartition(0, K))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitClients(t, s, 1)

	for _, ev := range evs {
		s.BroadcastBatch([]osn.Event{ev})
	}
	want := wantSeqs(evs, 0, K)
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	for i, seq := range want {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ev != evs[seq-1] {
			t.Fatalf("recv %d: got %+v, want seq %d = %+v", i, ev, seq, evs[seq-1])
		}
		if c.LastSeq() < seq {
			t.Fatalf("recv %d: LastSeq %d behind the event's seq %d", i, c.LastSeq(), seq)
		}
	}
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drain: err = %v, want ErrClosed", err)
	}
	if c.LastSeq() != total {
		t.Fatalf("cursor ended at %d, want %d", c.LastSeq(), total)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPartitionedCursorAdvancesPastForeignEvents: a subscriber whose
// partition owns none of the traffic must still track the feed head —
// empty fbatch frames advance its cursor, its acks follow, and the
// server's delivered accounting shows the progress. Without this a
// silent partition would pin the resume window at zero forever.
func TestPartitionedCursorAdvancesPastForeignEvents(t *testing.T) {
	leakCheck(t)
	const K = 2
	foreign := actorIn(t, 0, K)
	owned := actorIn(t, 1, K)
	s, err := NewServer("127.0.0.1:0", withMaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), WithPartition(1, K))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitClients(t, s, 1)

	// 100 owner-only events for the other partition: nothing to
	// deliver, but ≥ maxBatch of silence forces cursor-advance frames.
	for i := 0; i < 100; i++ {
		s.BroadcastBatch([]osn.Event{{Type: osn.EvMessage, At: int64(i), Actor: foreign, Target: foreign}})
	}
	s.BroadcastBatch([]osn.Event{{Type: osn.EvMessage, At: 100, Actor: owned, Target: owned}})
	ev, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.At != 100 {
		t.Fatalf("got %+v, want the single owned event", ev)
	}
	if c.LastSeq() != 101 {
		t.Fatalf("LastSeq = %d, want 101 (cursor over the foreign run)", c.LastSeq())
	}
	// The client acks the advanced cursor when it next blocks; the
	// foreign events count as delivered cursor progress server-side.
	done := make(chan struct{})
	go func() { defer close(done); c.Recv() }() // flushes the ack, then blocks
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Delivered >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered never covered the foreign run: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	c.Kick()
	<-done
}

// TestPartitionedResumeAfterKill kills a partitioned subscriber's
// connection mid-stream and resumes: the filtered feed must continue
// with no gap and no duplicate, in global coordinates.
func TestPartitionedResumeAfterKill(t *testing.T) {
	leakCheck(t)
	const K, total = 3, 3000
	evs := partEvents(total, 3)
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(total+16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), WithPartition(1, K))
	if err != nil {
		t.Fatal(err)
	}
	waitClients(t, s, 1)
	for _, ev := range evs {
		s.BroadcastBatch([]osn.Event{ev})
	}
	want := wantSeqs(evs, 1, K)
	read := 0
	for read < len(want)/3 {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", read, err)
		}
		if ev != evs[want[read]-1] {
			t.Fatalf("recv %d: got %+v, want seq %d", read, ev, want[read])
		}
		read++
	}
	c.conn.Close() // hard kill, no goodbye

	// The cursor may sit past want[read-1] (a drained frame covers
	// trailing foreign events); the remainder is whatever the contract
	// puts above it.
	c2, err := DialResume(s.Addr(), c.Session(), c.LastSeq()+1, WithPartition(1, K))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer c2.Close()
	for _, seq := range want[read:] {
		if seq <= c.LastSeq() {
			t.Fatalf("cursor %d jumped over undelivered owned seq %d", c.LastSeq(), seq)
		}
		ev, err := c2.Recv()
		if err != nil {
			t.Fatalf("recv seq %d after resume: %v", seq, err)
		}
		if ev != evs[seq-1] {
			t.Fatalf("gap or duplicate after resume: got %+v, want seq %d = %+v", ev, seq, evs[seq-1])
		}
	}
}

// TestPartitionedResumePartitionMismatchRejected: a session's filter
// is part of its delivery state — resuming it under a different
// partition (or unpartitioned) must be refused loudly, not silently
// served the wrong slice.
func TestPartitionedResumePartitionMismatchRejected(t *testing.T) {
	leakCheck(t)
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), WithPartition(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitClients(t, s, 1)
	s.BroadcastBatch([]osn.Event{{Type: osn.EvMessage, At: 1, Actor: actorIn(t, 0, 2)}})
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	c.conn.Close()

	for name, opts := range map[string][]DialOption{
		"different partition": {WithPartition(1, 2)},
		"different group":     {WithPartition(0, 3)},
		"unpartitioned":       nil,
	} {
		_, err := DialResume(s.Addr(), c.Session(), c.LastSeq()+1, opts...)
		if !errors.Is(err, ErrGap) || !strings.Contains(err.Error(), "partition mismatch") {
			t.Fatalf("%s resume: err = %v, want ErrGap with a partition mismatch", name, err)
		}
	}
	// The matching partition still resumes fine.
	c2, err := DialResume(s.Addr(), c.Session(), c.LastSeq()+1, WithPartition(0, 2))
	if err != nil {
		t.Fatalf("matching resume: %v", err)
	}
	c2.Close()
}

// TestDialInvalidPartition: out-of-range requests die client-side.
func TestDialInvalidPartition(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", WithPartition(3, 2)); err == nil || !strings.Contains(err.Error(), "invalid partition") {
		t.Fatalf("err = %v, want invalid partition", err)
	}
	if _, err := Dial("127.0.0.1:1", WithPartition(-1, 4)); err == nil || !strings.Contains(err.Error(), "invalid partition") {
		t.Fatalf("err = %v, want invalid partition", err)
	}
}

// TestAdmissionOneOwnerPerKey is admission's ownership rule as a
// table: a partition key has one connected session whose offers alone
// it takes, whole-feed sessions share the feed, and an adopting hello
// receives its key's held snapshot in the handshake and resumes right
// after it.
func TestAdmissionOneOwnerPerKey(t *testing.T) {
	leakCheck(t)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, srv *Server, sp *spool.Spool)
	}{
		{"second session waits for the holder to detach", func(t *testing.T, srv *Server, _ *spool.Spool) {
			c, err := Dial(srv.Addr(), WithPartition(0, 2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Dial(srv.Addr(), WithPartition(0, 2)); !errors.Is(err, ErrHeld) {
				t.Fatalf("second session on a held key: err = %v, want ErrHeld", err)
			}
			if _, err := DialAdopt(srv.Addr(), 0, WithPartition(0, 2)); !errors.Is(err, ErrHeld) {
				t.Fatalf("adopting session on a held key: err = %v, want ErrHeld", err)
			}
			other, err := Dial(srv.Addr(), WithPartition(1, 2))
			if err != nil {
				t.Fatalf("the other key of the group: %v", err)
			}
			other.Close()
			c.Kick()
			waitDetached(t, srv)
			c2, err := Dial(srv.Addr(), WithPartition(0, 2))
			if err != nil {
				t.Fatalf("second session once the holder detached: %v", err)
			}
			c2.Close()
		}},
		{"the holder's own resume passes", func(t *testing.T, srv *Server, _ *spool.Spool) {
			srv.BroadcastBatch([]osn.Event{testEvent(0)})
			c, err := DialFrom(srv.Addr(), 1, WithPartition(1, 3))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Kick()
			c2, err := DialResume(srv.Addr(), c.Session(), 1, WithPartition(1, 3))
			if err != nil {
				t.Fatalf("same-id resume on its own key: %v", err)
			}
			c2.Close()
		}},
		{"whole-feed sessions share the feed", func(t *testing.T, srv *Server, _ *spool.Spool) {
			for _, opts := range [][]DialOption{nil, {WithPartition(0, 1)}} {
				a, err := Dial(srv.Addr(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				b, err := Dial(srv.Addr(), opts...)
				if err != nil {
					t.Fatalf("second whole-feed session: %v", err)
				}
				a.Close()
				b.Close()
			}
		}},
		{"adoption hands over the held snapshot", func(t *testing.T, srv *Server, _ *spool.Spool) {
			for i := 0; i < 10; i++ {
				srv.BroadcastBatch([]osn.Event{testEvent(i)})
			}
			if c, err := DialAdopt(srv.Addr(), 1, WithPartition(1, 2)); err != nil {
				t.Fatal(err)
			} else if seq, data := c.Adopted(); seq != 0 || data != nil || c.LastSeq() != 0 {
				t.Fatalf("with nothing held: adopted (%d, %q) at cursor %d, want nothing from seq 1", seq, data, c.LastSeq())
			} else {
				c.Close()
			}
			for _, parts := range []int{2, 1} {
				if err := OfferSnapshot(srv.Addr(), owner(t, srv, 0, parts), 0, parts, 7, []byte("state at 7")); err != nil {
					t.Fatal(err)
				}
				c, err := DialAdopt(srv.Addr(), 0, WithPartition(0, parts))
				if err != nil {
					t.Fatal(err)
				}
				if seq, data := c.Adopted(); seq != 7 || len(data) != 1 || string(data[0]) != "state at 7" || c.LastSeq() != 7 {
					t.Fatalf("key 0/%d: adopted (%d, %q) at cursor %d, want (7, state at 7) at 7", parts, seq, data, c.LastSeq())
				}
				for c.LastSeq() < 10 {
					if _, err := c.RecvBatch(); err != nil {
						t.Fatal(err)
					}
					if seqs := c.LastBatchSeqs(); len(seqs) > 0 && seqs[0] <= 7 {
						t.Fatalf("key 0/%d: delivered seq %d at or below the adopted snapshot", parts, seqs[0])
					}
				}
				c.Close()
			}
		}},
		{"offers come from the key's owner", func(t *testing.T, srv *Server, _ *spool.Spool) {
			for i := 0; i < 10; i++ {
				srv.BroadcastBatch([]osn.Event{testEvent(i)})
			}
			c, err := Dial(srv.Addr(), WithPartition(0, 2))
			if err != nil {
				t.Fatal(err)
			}
			if err := OfferSnapshot(srv.Addr(), c.Session(), 0, 2, 4, []byte("owner at 4")); err != nil {
				t.Fatalf("the owner's offer: %v", err)
			}
			if err := OfferSnapshot(srv.Addr(), "intruder", 0, 2, 6, []byte("intruder at 6")); err == nil || !strings.Contains(err.Error(), "does not own") {
				t.Fatalf("an offer naming another session: err = %v, want a refusal", err)
			}
			c.Kick()
			waitDetached(t, srv)
			c2, err := DialAdopt(srv.Addr(), 0, WithPartition(0, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if seq, data := c2.Adopted(); seq != 4 || len(data) != 1 || string(data[0]) != "owner at 4" {
				t.Fatalf("adopted (%d, %q), want the owner's (4, owner at 4)", seq, data)
			}
			// The first owner's late offer lands after its successor adopted.
			if err := OfferSnapshot(srv.Addr(), c.Session(), 0, 2, 8, []byte("dead owner at 8")); err == nil {
				t.Fatal("the replaced owner's offer was taken")
			}
			if err := OfferSnapshot(srv.Addr(), c2.Session(), 0, 2, 5, []byte("successor at 5")); err != nil {
				t.Fatalf("the successor's offer: %v", err)
			}
			if err := OfferSnapshot(srv.Addr(), "", 0, 2, 5, []byte("anonymous at 5")); err == nil || !strings.Contains(err.Error(), "does not own") {
				t.Fatalf("an anonymous offer: err = %v, want a refusal", err)
			}
			if err := OfferSnapshot(srv.Addr(), c2.Session(), 0, 2, 5, []byte("successor again at 5")); err != nil {
				t.Fatalf("the successor's re-offer: %v", err)
			}
			if err := OfferSnapshot(srv.Addr(), "anyone", 0, 1, 5, []byte("whole feed")); err != nil {
				t.Fatalf("a whole-feed offer: %v", err)
			}
			if seq, data := held(srv, 0, 2); seq != 5 || string(data) != "successor again at 5" {
				t.Fatalf("held (%d, %q), want the equal-sequence re-offer at 5", seq, data)
			}
		}},
		{"a fence refusal of an adopting hello is no lost range", func(t *testing.T, srv *Server, _ *spool.Spool) {
			for i := 0; i < 10; i++ {
				srv.BroadcastBatch([]osn.Event{testEvent(i)})
			}
			if _, err := PrepareRebalance(srv.Addr(), 2, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := DialAdopt(srv.Addr(), 0, WithPartition(0, 2)); err == nil || errors.Is(err, ErrGap) || !strings.Contains(err.Error(), "rebalanced") {
				t.Fatalf("adopting a fenced shape: err = %v, want the fence refusal, not ErrGap", err)
			}
		}},
		{"a broker that ignores adopt is refused", func(t *testing.T, _ *Server, _ *spool.Spool) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := readFrame(conn, nil); err == nil {
					writeControl(conn, frame{T: frameWelcome, V: ProtocolVersion, From: 1})
				}
				readFrame(conn, nil) // until the client hangs up
			}()
			if c, err := DialAdopt(ln.Addr().String(), 0, WithPartition(0, 2)); err == nil || !strings.Contains(err.Error(), "ignored adopt") {
				if c != nil {
					c.Close()
				}
				t.Fatalf("welcome without the adopt echo: err = %v, want a refusal", err)
			}
		}},
		{"a closing broker's refusal is ErrClosing, no lost range", func(t *testing.T, srv *Server, _ *spool.Spool) {
			srv.BroadcastBatch([]osn.Event{testEvent(0)})
			srv.log.shut(false) // what a hello dialed while Close runs meets
			if rep := refusedHello(t, srv.Addr(), frame{Session: "s", Resume: 1}); rep.Class != classClosing {
				t.Fatalf("resume on a closing broker: reply %+v, want class %q", rep, classClosing)
			}
			for _, hello := range []func() (*Client, error){
				func() (*Client, error) { return Dial(srv.Addr(), WithPartition(0, 2)) },
				func() (*Client, error) { return DialResume(srv.Addr(), "s", 1) },
			} {
				if _, err := hello(); !errors.Is(err, ErrClosing) || errors.Is(err, ErrGap) {
					t.Fatalf("dial on a closing broker: err = %v, want ErrClosing", err)
				}
			}
		}},
		{"an incomplete cut is ErrCutPending", func(t *testing.T, srv *Server, _ *spool.Spool) {
			for i := 0; i < 10; i++ {
				srv.BroadcastBatch([]osn.Event{testEvent(i)})
			}
			if _, err := PrepareRebalance(srv.Addr(), 2, 3); err != nil {
				t.Fatal(err)
			}
			if rep := refusedHello(t, srv.Addr(), frame{Session: "s", Adopt: true, Part: 1, Parts: 3}); rep.Class != classCutPending {
				t.Fatalf("adopting an incomplete cut: reply %+v, want class %q", rep, classCutPending)
			}
			if _, err := DialAdopt(srv.Addr(), 0, WithPartition(1, 3)); !errors.Is(err, ErrCutPending) {
				t.Fatalf("adopting an incomplete cut: err = %v, want ErrCutPending", err)
			}
		}},
		{"a retired shape's refusal names its cutover", func(t *testing.T, srv *Server, _ *spool.Spool) {
			for i := 0; i < 10; i++ {
				srv.BroadcastBatch([]osn.Event{testEvent(i)})
			}
			barrier, err := PrepareRebalance(srv.Addr(), 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			rep := refusedHello(t, srv.Addr(), frame{Session: "s", Part: 1, Parts: 2})
			if rep.Class != classRebalanced || rep.Parts != 2 || rep.NParts != 3 || rep.Barrier != barrier {
				t.Fatalf("fresh join of a retired shape: reply %+v, want class %q naming 2 -> 3 at %d", rep, classRebalanced, barrier)
			}
			var reb *RebalancedError
			if _, err := Dial(srv.Addr(), WithPartition(1, 2)); !errors.Is(err, ErrRebalanced) || !errors.As(err, &reb) ||
				*reb != (RebalancedError{From: 2, To: 3, Barrier: barrier}) {
				t.Fatalf("fresh join of a retired shape: err = %v, want ErrRebalanced naming 2 -> 3 at %d", err, barrier)
			}
		}},
		{"a resume below the tail is ErrGap", func(t *testing.T, srv *Server, sp *spool.Spool) {
			for i := 0; i < 500; i++ {
				srv.BroadcastBatch([]osn.Event{testEvent(i)})
			}
			if sp.First() <= 1 {
				t.Fatal("test premise broken: retention never pruned")
			}
			if rep := refusedHello(t, srv.Addr(), frame{Session: "s", Resume: 1}); rep.Class != classGap {
				t.Fatalf("resume below the spool's retention: reply %+v, want class %q", rep, classGap)
			}
			if _, err := DialResume(srv.Addr(), "s", 1); !errors.Is(err, ErrGap) {
				t.Fatalf("resume below the spool's retention: err = %v, want ErrGap", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Retention prunes whatever no session or snapshot pins.
			sp, err := spool.Open(t.TempDir(), spool.WithSegmentBytes(512), spool.WithRetainBytes(1024))
			if err != nil {
				t.Fatal(err)
			}
			defer sp.Close()
			srv, err := NewServer("127.0.0.1:0", WithReplayBuffer(16), WithSpool(sp))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			tc.run(t, srv, sp)
		})
	}
}

// TestPartitionedCatchupFromSpool is the teardown audit for the
// spool-to-tail hand-over under a filtered subscription: a partitioned
// subscriber detaches, the feed overruns the tiny tail (its next
// sequence is left on disk only), and the resume must replay the
// filtered slice from the spool, return to the tail at an exact
// boundary, and keep serving live events — leaking neither goroutines
// nor fds across the whole dance.
func TestPartitionedCatchupFromSpool(t *testing.T) {
	leakCheck(t)
	const K, burst, live = 2, 2000, 100
	evs := partEvents(burst+live, 4)
	srv, _ := spooledServer(t, 16, withMaxBatch(32))
	c, err := Dial(srv.Addr(), WithPartition(1, K))
	if err != nil {
		t.Fatal(err)
	}
	waitClients(t, srv, 1)
	c.conn.Close() // detach before any delivery
	waitDetached(t, srv)

	for _, ev := range evs[:burst] {
		srv.BroadcastBatch([]osn.Event{ev}) // overruns the 16-event tail
	}
	c2, err := DialResume(srv.Addr(), c.Session(), 1, WithPartition(1, K))
	if err != nil {
		t.Fatalf("resume into catch-up: %v", err)
	}
	defer c2.Close()

	want := wantSeqs(evs, 1, K)
	got := make([]uint64, 0, len(want))
	for len(got) < len(want) {
		batch, err := c2.RecvBatch()
		if err != nil {
			t.Fatalf("recv after %d events: %v", len(got), err)
		}
		seqs := c2.LastBatchSeqs()
		if len(seqs) != len(batch) {
			t.Fatalf("LastBatchSeqs has %d entries for a %d-event batch", len(seqs), len(batch))
		}
		for i, seq := range seqs {
			if batch[i] != evs[seq-1] {
				t.Fatalf("seq %d carries %+v, broadcast was %+v", seq, batch[i], evs[seq-1])
			}
		}
		got = append(got, seqs...)
		if len(got) == len(wantSeqs(evs[:burst], 1, K)) {
			// Catch-up replayed the whole burst; the rest arrives live
			// through the flipped session.
			for _, ev := range evs[burst:] {
				srv.BroadcastBatch([]osn.Event{ev})
			}
		}
	}
	for i, seq := range got {
		if seq != want[i] {
			t.Fatalf("event %d has seq %d, want %d", i, seq, want[i])
		}
	}
}

// TestPartitionedBackfillFromStart: a brand-new partitioned consumer
// replays the whole spooled history of its slice (DialFrom(1)) before
// going live — the cluster-worker cold-start path.
func TestPartitionedBackfillFromStart(t *testing.T) {
	leakCheck(t)
	const K, total = 3, 1500
	evs := partEvents(total, 5)
	srv, _ := spooledServer(t, 16)
	for _, ev := range evs {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	for p := 0; p < K; p++ {
		c, err := DialFrom(srv.Addr(), 1, WithPartition(p, K))
		if err != nil {
			t.Fatalf("backfill partition %d: %v", p, err)
		}
		want := wantSeqs(evs, p, K)
		for i := 0; i < len(want); {
			batch, err := c.RecvBatch()
			if err != nil {
				t.Fatalf("partition %d recv: %v", p, err)
			}
			for j, seq := range c.LastBatchSeqs() {
				if seq != want[i] {
					t.Fatalf("partition %d event %d has seq %d, want %d", p, i, seq, want[i])
				}
				if batch[j] != evs[seq-1] {
					t.Fatalf("partition %d seq %d carries wrong event", p, seq)
				}
				i++
			}
		}
		c.Close()
	}
}

// TestSpoollessPartitionedBackpressureLosesNothing: on a server given
// no spool (it spools privately), a partitioned session that falls
// behind a small tail — a slow reader, or one owning every event — is
// served the rest from the spool and receives exactly its slice, each
// event once, with no eviction. Its cursor must never run ahead of what
// its writer framed: a cursor advance past a chunk not yet framed makes
// the client drop that chunk's events as duplicates, a silent shortfall
// with a clean eof.
func TestSpoollessPartitionedBackpressureLosesNothing(t *testing.T) {
	const K = 2
	owned := actorIn(t, 0, K)
	allOwned := make([]osn.Event, 40*DefaultMaxBatch)
	for i := range allOwned {
		allOwned[i] = osn.Event{Type: osn.EvMessage, At: int64(i), Actor: owned, Target: owned}
	}
	for _, tc := range []struct {
		name          string
		evs           []osn.Event
		batch, window int
		pause         time.Duration // per RecvBatch: a slow reader
	}{
		{"mixed-slow-reader", partEvents(25600, 11), 512, 1024, 500 * time.Microsecond},
		{"all-owned", allOwned, DefaultMaxBatch, 300, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			s, err := NewServer("127.0.0.1:0", WithReplayBuffer(tc.window))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c, err := Dial(s.Addr(), WithPartition(0, K))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			waitClients(t, s, 1)

			var got []uint64
			done := make(chan error, 1)
			go func() {
				for {
					if _, err := c.RecvBatch(); err != nil {
						if errors.Is(err, ErrClosed) {
							err = nil
						}
						c.Close() // lets Close return without waiting out the drain deadline
						done <- err
						return
					}
					got = append(got, c.LastBatchSeqs()...)
					time.Sleep(tc.pause)
				}
			}()
			for off := 0; off < len(tc.evs); off += tc.batch {
				s.BroadcastBatch(tc.evs[off:min(off+tc.batch, len(tc.evs))])
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("subscriber: %v", err)
			}
			if st := s.Stats(); st.Evicted != 0 {
				t.Fatalf("evicted %d sessions", st.Evicted)
			}
			want := wantSeqs(tc.evs, 0, K)
			if len(got) != len(want) {
				t.Fatalf("received %d events, contract says %d", len(got), len(want))
			}
			for i, seq := range got {
				if seq != want[i] {
					t.Fatalf("event %d has seq %d, want %d", i, seq, want[i])
				}
			}
		})
	}
}

// TestPartitionedForeignRunReleasesTail: the tail counts feed events
// for a partitioned subscriber too, so a run of foreign events longer
// than the tail drops chunks the subscriber has not acknowledged. The
// producer runs on regardless, and the subscriber still receives each
// owned event between the runs, from the tail or the spool, with no
// eviction.
func TestPartitionedForeignRunReleasesTail(t *testing.T) {
	leakCheck(t)
	const K, window, total, every = 2, 8, 400, 100
	owned, foreign := actorIn(t, 0, K), actorIn(t, 1, K)
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(window))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), WithPartition(0, K))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitClients(t, s, 1)
	done := make(chan error, 1)
	go func() {
		for i := every - 1; i < total; i += every {
			ev, err := c.Recv()
			if err == nil && ev.At != int64(i) {
				err = fmt.Errorf("got event At=%d, want the owned event %d", ev.At, i)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	start := time.Now()
	for i := 0; i < total; i++ {
		actor := foreign
		if i%every == every-1 {
			actor = owned
		}
		s.BroadcastBatch([]osn.Event{{Type: osn.EvMessage, At: int64(i), Actor: actor, Target: actor}})
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("a foreign run wedged the producer for %v", d)
	}
	if st := s.Stats(); st.Evicted != 0 {
		t.Fatalf("evicted %d sessions", st.Evicted)
	}
}

// TestPartitionedLingerExpiryEvicted: the linger clock must run for a
// detached partitioned session even when every event in the meantime
// was foreign — a partition that owns nothing still has its lifetime
// bookkept — and once it has expired, nothing pins the spool's
// retention for it any more: a resume from a sequence retention pruned
// is a gap.
func TestPartitionedLingerExpiryEvicted(t *testing.T) {
	leakCheck(t)
	const K, window = 2, 4
	foreign := actorIn(t, 1, K)
	sp, err := spool.Open(t.TempDir(), spool.WithSegmentBytes(512), spool.WithRetainBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	s, err := NewServer("127.0.0.1:0", withSessionLinger(30*time.Millisecond), WithReplayBuffer(window), WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), WithPartition(0, K))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitClients(t, s, 1)
	c.conn.Close()
	waitDetached(t, s)
	time.Sleep(60 * time.Millisecond)
	// A purely foreign event must still trigger the expiry sweep.
	s.BroadcastBatch([]osn.Event{{Type: osn.EvMessage, At: 0, Actor: foreign, Target: foreign}})
	if st := s.Stats(); st.Sessions != 0 || st.Evicted != 0 {
		t.Fatalf("linger expiry: sessions=%d evicted=%d, want the session swept with no loss counted", st.Sessions, st.Evicted)
	}
	for i := 1; i <= 200; i++ { // sequence 1 leaves the tail, and retention prunes it
		s.BroadcastBatch([]osn.Event{{Type: osn.EvMessage, At: int64(i), Actor: foreign, Target: foreign}})
	}
	if sp.First() <= 1 {
		t.Fatal("test premise broken: retention never pruned")
	}
	if _, err := DialResume(s.Addr(), c.Session(), 1, WithPartition(0, K)); !errors.Is(err, ErrGap) {
		t.Fatalf("resume after linger expiry: err = %v, want ErrGap", err)
	}
}

// TestSnapshotOfferFetchRoundTrip exercises the rendezvous store end
// to end: offers from the key's owner, freshness rules, key isolation,
// stats.
func TestSnapshotOfferFetchRoundTrip(t *testing.T) {
	leakCheck(t)
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr()
	// The broker writes a snapshot beside its spool only once the feed
	// it covers is there.
	evs := make([]osn.Event, 600)
	for i := range evs {
		evs[i] = testEvent(i)
	}
	s.BroadcastBatch(evs)

	if seq, _ := held(s, 1, 3); seq != 0 {
		t.Fatalf("held seq %d before any offer, want none", seq)
	}

	own := owner(t, s, 1, 3)
	blob := []byte("\x00\x01snapshot payload \xff not JSON at all")
	if err := OfferSnapshot(addr, own, 1, 3, 500, blob); err != nil {
		t.Fatalf("offer: %v", err)
	}
	if seq, data := held(s, 1, 3); seq != 500 || !bytes.Equal(data, blob) {
		t.Fatalf("held = (%d, %q), want (500, original payload)", seq, data)
	}

	// A stale offer must not regress the held snapshot.
	if err := OfferSnapshot(addr, own, 1, 3, 400, []byte("older")); err != nil {
		t.Fatalf("stale offer: %v", err)
	}
	if seq, _ := held(s, 1, 3); seq != 500 {
		t.Fatalf("stale offer regressed the store to seq %d", seq)
	}
	// A fresher offer replaces it.
	if err := OfferSnapshot(addr, own, 1, 3, 600, []byte("newer")); err != nil {
		t.Fatalf("fresher offer: %v", err)
	}
	if seq, data := held(s, 1, 3); seq != 600 || string(data) != "newer" {
		t.Fatalf("held after fresher offer = (%d, %q)", seq, data)
	}

	// Keys are (part, parts): a 2-way snapshot is invisible to 3-way.
	if err := OfferSnapshot(addr, owner(t, s, 1, 2), 1, 2, 50, []byte("two-way")); err != nil {
		t.Fatal(err)
	}
	if seq, data := held(s, 1, 3); seq != 600 || string(data) != "newer" {
		t.Fatalf("(1,2) offer bled into (1,3): (%d, %q)", seq, data)
	}
	if seq, _ := held(s, 0, 3); seq != 0 {
		t.Fatalf("unoffered sibling partition holds seq %d, want none", seq)
	}

	snaps := s.Stats().Snapshots
	if len(snaps) != 2 {
		t.Fatalf("stats list %d snapshots, want 2: %+v", len(snaps), snaps)
	}
	if snaps[0].Parts != 2 || snaps[0].Part != 1 || snaps[0].Seq != 50 ||
		snaps[1].Parts != 3 || snaps[1].Part != 1 || snaps[1].Seq != 600 || string(snaps[1].Data) != "newer" {
		t.Fatalf("snapshot stats = %+v", snaps)
	}

	// Invalid partitions die before touching the network or the store.
	if err := OfferSnapshot(addr, own, 3, 3, 1, nil); err == nil {
		t.Fatal("offer with part == parts accepted")
	}
}

// TestSnapshotLargerThanFrameLimit: snapshot payloads ride the
// header's declared size, not MaxFrameSize — a graph snapshot past
// 16 MiB must transfer intact, in the offer and in the adopting
// handshake.
func TestSnapshotLargerThanFrameLimit(t *testing.T) {
	leakCheck(t)
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	big := make([]byte, 17<<20)
	for i := range big {
		big[i] = byte(i * 2654435761)
	}
	if err := OfferSnapshot(s.Addr(), owner(t, s, 0, 2), 0, 2, 9, big); err != nil {
		t.Fatalf("offer: %v", err)
	}
	if seq, data := held(s, 0, 2); seq != 9 || !bytes.Equal(data, big) {
		t.Fatalf("large snapshot corrupted in the offer (seq %d, %d bytes)", seq, len(data))
	}
	c, err := DialAdopt(s.Addr(), 0, WithPartition(0, 2))
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	defer c.Close()
	if seq, data := c.Adopted(); seq != 9 || len(data) != 1 || !bytes.Equal(data[0], big) {
		t.Fatalf("large snapshot corrupted in the handshake (seq %d, %d payloads)", seq, len(data))
	}
}

// refusedHello sends hello on a raw connection to addr and returns the
// broker's reply, which must be a refused welcome.
func refusedHello(t *testing.T, addr string, hello frame) frame {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello.T, hello.V = frameHello, ProtocolVersion
	rep, _, err := handshake(conn, hello, nil, frameWelcome)
	if err == nil || rep.Err == "" {
		t.Fatalf("hello %+v admitted: %+v", hello, rep)
	}
	return rep
}
