package stream

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
)

// spooledServer builds a server with a tiny in-memory window backed
// by a disk spool in a test temp dir.
func spooledServer(t *testing.T, window int, opts ...ServerOption) (*Server, *spool.Spool) {
	t.Helper()
	sp, err := spool.Open(t.TempDir(), spool.WithSegmentBytes(4096))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	srv, err := NewServer("127.0.0.1:0",
		append([]ServerOption{WithReplayBuffer(window), WithSpool(sp)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sp
}

// recvThrough drains the client until lastSeq reaches target,
// checking sequence continuity via the events' At stamps (testEvent(i)
// is broadcast as sequence i+1).
// failingServer is a server with a window-event tail on a spool with
// 512-byte segments, and fail takes that disk tier offline the way a
// dying disk would: the spool's directory goes, and the next segment
// roll fails. From then on the tail is all the feed serves, the one way
// a broker still loses a range that its readers' acks or its held
// snapshots pin against pruning. Callers publish past a roll and check
// ServerStats.SpoolErr.
func failingServer(t *testing.T, window int) (srv *Server, fail func()) {
	t.Helper()
	dir := t.TempDir()
	sp, err := spool.Open(dir, spool.WithSegmentBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	srv, err = NewServer("127.0.0.1:0", WithReplayBuffer(window), WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, func() { os.RemoveAll(dir) }
}

func recvThrough(t *testing.T, c *Client, target uint64) {
	t.Helper()
	for c.LastSeq() < target {
		evs, err := c.RecvBatch()
		if err != nil {
			t.Fatalf("recv at seq %d: %v", c.LastSeq(), err)
		}
		base := c.LastSeq() - uint64(len(evs)) + 1
		for i, ev := range evs {
			if want := int64(base) + int64(i) - 1; ev.At != want {
				t.Fatalf("seq %d carries event At=%d, want %d", base+uint64(i), ev.At, want)
			}
		}
	}
}

// TestResumePastWindowFromSpool is the tentpole behavior: a
// subscriber disconnects, the feed runs hundreds of events past its
// 16-event window, and the resume is still served — the gap coming
// from disk segments — with no ErrGap and no discontinuity.
func TestResumePastWindowFromSpool(t *testing.T) {
	const total = 2000
	srv, _ := spooledServer(t, 16)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	recvThrough(t, c, 50)
	session, last := c.Session(), c.LastSeq()
	c.Kick() // hard kill, no goodbye
	waitDetached(t, srv)

	// The feed runs far past the window while the subscriber is gone;
	// without the spool this session would be evicted and the resume
	// answered with ErrGap.
	for i := 100; i < total; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}

	c2, err := DialResume(srv.Addr(), session, last+1)
	if err != nil {
		t.Fatalf("resume past window: %v", err)
	}
	defer c2.Close()
	recvThrough(t, c2, total)

	// And the session is live again: new broadcasts flow through the
	// memory ring.
	srv.BroadcastBatch([]osn.Event{testEvent(total)})
	recvThrough(t, c2, total+1)
	if st := srv.Stats(); st.Evicted != 0 {
		t.Fatalf("evicted = %d, want 0 (nothing was lost)", st.Evicted)
	}
}

// TestResumeEvictedSessionFromSpool: even after the session itself is
// long gone (linger expiry), a resume with its id is recreated from
// disk — the path a detector adopting a stale snapshot takes.
func TestResumeEvictedSessionFromSpool(t *testing.T) {
	srv, _ := spooledServer(t, 8, withSessionLinger(10*time.Millisecond))
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	recvThrough(t, c, 10)
	session, last := c.Session(), c.LastSeq()
	c.Kick()
	waitDetached(t, srv)
	time.Sleep(30 * time.Millisecond) // linger expires
	for i := 20; i < 500; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)}) // sweeps the expired session away
	}
	if srv.Stats().Sessions != 0 {
		t.Fatal("test premise broken: session still held")
	}

	c2, err := DialResume(srv.Addr(), session, last+1)
	if err != nil {
		t.Fatalf("cold resume of evicted session: %v", err)
	}
	defer c2.Close()
	recvThrough(t, c2, 500)
	if st := srv.Stats(); st.Evicted != 0 {
		t.Fatalf("evicted = %d, want 0 (spool retains everything)", st.Evicted)
	}
}

// TestSlowSubscriberDemotedNotStalled: with a spool, a subscriber
// that falls out of the tail does not block Broadcast (nor get
// evicted) — the tail moves on, the subscriber reads the spool
// (CatchUp) and still receives every event.
func TestSlowSubscriberDemotedNotStalled(t *testing.T) {
	const total = 5000
	srv, _ := spooledServer(t, 16)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Broadcast everything before the consumer reads a byte: the
	// 16-event tail overflows immediately, and the loop must still
	// complete quickly.
	start := time.Now()
	demoted := false
	for i := 0; i < total; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
		if !demoted && i%256 == 0 {
			for _, ss := range srv.Stats().PerSession {
				demoted = demoted || ss.CatchUp
			}
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Broadcast of %d events took %v; demotion did not bypass backpressure", total, elapsed)
	}
	if !demoted {
		t.Fatal("session never entered catch-up mode")
	}
	recvThrough(t, c, total)
	if st := srv.Stats(); st.Evicted != 0 {
		t.Fatalf("evicted = %d, want 0", st.Evicted)
	}
}

// TestSpooledServerAdoptsSequence: a restarted producer reusing the
// spool directory continues the sequence space, and a subscriber from
// the previous incarnation resumes across the restart — disk history
// first, live events after.
func TestSpooledServerAdoptsSequence(t *testing.T) {
	dir := t.TempDir()
	sp, err := spool.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", WithReplayBuffer(16), WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	recvThrough(t, c, 120)
	session, last := c.Session(), c.LastSeq()
	c.Close()
	srv.Close()
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same spool.
	sp2, err := spool.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	srv2, err := NewServer("127.0.0.1:0", WithReplayBuffer(16), WithSpool(sp2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.BroadcastBatch([]osn.Event{testEvent(300)}) // must be assigned sequence 301, not 1

	c2, err := DialResume(srv2.Addr(), session, last+1)
	if err != nil {
		t.Fatalf("resume across producer restart: %v", err)
	}
	defer c2.Close()
	recvThrough(t, c2, 301)
}

// TestResumeBelowRetentionIsErrGap: pruned history answers resumes
// with a loud ErrGap, exactly like the memory tier used to — the
// spool narrows the gap, it must never hide one.
func TestResumeBelowRetentionIsErrGap(t *testing.T) {
	sp, err := spool.Open(t.TempDir(),
		spool.WithSegmentBytes(1024), spool.WithRetainBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	srv, err := NewServer("127.0.0.1:0", WithReplayBuffer(8), WithSpool(sp),
		withSessionLinger(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv.BroadcastBatch([]osn.Event{testEvent(0)})
	recvThrough(t, c, 1)
	session := c.Session()
	c.Close() // clean close acks everything delivered
	waitDetached(t, srv)
	time.Sleep(30 * time.Millisecond) // linger expires: nothing pins retention
	for i := 1; i < 3000; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	if sp.First() <= 1 {
		t.Fatal("test premise broken: retention never pruned")
	}
	if _, err := DialResume(srv.Addr(), session, 2); !errors.Is(err, ErrGap) {
		t.Fatalf("resume below retention: err = %v, want ErrGap", err)
	}
}

// TestManualAckLargeLagOverSpool is the detectd shape that motivates
// the disk tier: a manual-ack consumer whose acks move only at
// checkpoints, with a tail far smaller than the checkpoint
// interval. The tail moves on, the consumer reads what it left behind
// from disk, and the feed drains fully.
func TestManualAckLargeLagOverSpool(t *testing.T) {
	const total = 4000
	srv, _ := spooledServer(t, 32)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetManualAck(true)

	done := make(chan error, 1)
	go func() {
		for c.LastSeq() < total {
			if _, err := c.RecvBatch(); err != nil {
				done <- err
				return
			}
			// Checkpoint-shaped acks: every 1000 events, far beyond the
			// 32-event window.
			if seq := c.LastSeq(); seq/1000 > c.acked/1000 {
				c.Ack(seq / 1000 * 1000)
			}
		}
		done <- nil
	}()
	for i := 0; i < total; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("consumer died: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("manual-ack consumer never drained the spooled feed")
	}
	if st := srv.Stats(); st.Evicted != 0 {
		t.Fatalf("evicted = %d, want 0", st.Evicted)
	}
}

// TestSpooledSnapshotSurvivesRestart: a spooled broker confirms an
// offer only once it is on disk, refuses one its spool cannot keep (it
// is past the spooled feed), and a broker restarted on the same spool
// directory still holds the confirmed snapshot (a worker adopting it
// there is TestRelayTreeFlagEquality's, in internal/cluster).
func TestSpooledSnapshotSurvivesRestart(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	sp, err := spool.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	if err := OfferSnapshot(srv.Addr(), owner(t, srv, 1, 2), 1, 2, 10, []byte("state at 10")); err != nil {
		t.Fatalf("offer: %v", err)
	}
	if err := OfferSnapshot(srv.Addr(), owner(t, srv, 0, 2), 0, 2, 11, []byte("ahead of the feed")); err == nil {
		t.Fatal("offer past the spooled feed confirmed")
	}
	srv.Abort()
	sp.Close()

	sp, err = spool.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	srv, err = NewServer("127.0.0.1:0", WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if seq, data := held(srv, 1, 2); seq != 10 || string(data) != "state at 10" {
		t.Fatalf("restarted broker holds (%d, %q), want (10, state at 10)", seq, data)
	}
	if seq, _ := held(srv, 0, 2); seq != 0 {
		t.Fatalf("refused offer survived the restart at seq %d", seq)
	}
}

// TestCommittedRebalanceDropsRetiredSnapshots: once the new owners'
// offers commit a K=2→3 cutover at barrier B, the retired shape's
// snapshots no longer pin the spool's retention. Its offers are
// refused, the feed is pruned past B+1 once the new owners have offered
// past it, and a broker restarted on the directory holds only the three
// new keys. Detached owner sessions linger briefly, so their acks do
// not pin the spool instead.
func TestCommittedRebalanceDropsRetiredSnapshots(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	open := func() (*Server, *spool.Spool) {
		t.Helper()
		sp, err := spool.Open(dir, spool.WithSegmentBytes(1024), spool.WithRetainBytes(2048))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer("127.0.0.1:0", WithSpool(sp), WithReplayBuffer(8), withSessionLinger(10*time.Millisecond))
		if err != nil {
			sp.Close()
			t.Fatal(err)
		}
		return srv, sp
	}
	srv, sp := open()
	for i := 0; i < 100; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	olds := []string{owner(t, srv, 0, 2), owner(t, srv, 1, 2)}
	barrier, err := PrepareRebalance(srv.Addr(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The old workers retire at the barrier and offer there; the new
	// ones adopt the cut and offer their share, which commits.
	news := cutOver(t, srv, olds, 3, barrier)
	if err := OfferSnapshot(srv.Addr(), olds[0], 0, 2, barrier, []byte("late")); err == nil || !strings.Contains(err.Error(), "no session owns") {
		t.Fatalf("offer for the retired shape: err = %v, want a refusal", err)
	}
	if seq, _ := held(srv, 1, 2); seq != 0 {
		t.Fatalf("retired key still held at seq %d after the commit", seq)
	}
	// The new owners offer past the barrier, and the feed runs on past
	// the retention budget.
	for i := 100; i < 1000; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	for p, sess := range news {
		if err := OfferSnapshot(srv.Addr(), sess, p, 3, 1000, []byte("past the barrier")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1000; i < 3000; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	if first := sp.First(); first <= barrier+1 {
		t.Fatalf("spool starts at %d: the retired shape still pins its barrier %d", first, barrier)
	}
	srv.Abort()
	sp.Close()

	srv, sp = open()
	defer func() { srv.Close(); sp.Close() }()
	var keys []string
	for _, sn := range srv.Stats().Snapshots {
		keys = append(keys, fmt.Sprintf("%d/%d@%d", sn.Part, sn.Parts, sn.Seq))
	}
	if got, want := strings.Join(keys, " "), "0/3@1000 1/3@1000 2/3@1000"; got != want {
		t.Fatalf("restarted broker holds %q, want %q", got, want)
	}
}

// TestSpooledSnapshotPinsRetention: with a retention budget, the spool
// keeps a held snapshot's resume point however far the feed runs on
// after its worker is gone, so the snapshot stays adoptable.
func TestSpooledSnapshotPinsRetention(t *testing.T) {
	leakCheck(t)
	sp, err := spool.Open(t.TempDir(), spool.WithSegmentBytes(1024), spool.WithRetainBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	srv, err := NewServer("127.0.0.1:0", WithSpool(sp), WithReplayBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 100; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	if err := OfferSnapshot(srv.Addr(), owner(t, srv, 0, 2), 0, 2, 50, []byte("state at 50")); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 2000; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	if st := sp.Stats(); st.First > 51 || st.Bytes <= 4096 {
		t.Fatalf("spool %+v: want the resume point 51 kept past the retention budget", st)
	}
	if seq, _ := held(srv, 0, 2); seq != 50 {
		t.Fatalf("held seq %d, want the snapshot at 50", seq)
	}
	c, err := DialResume(srv.Addr(), NewSessionID(), 51, WithPartition(0, 2))
	if err != nil {
		t.Fatalf("resume at the snapshot's resume point: %v", err)
	}
	c.Close()
}
