package stream

// A broker runs in one mode: a write its promises rest on — a spool
// append or sync, or a cutover note — that fails stops it (Server.stop).
// These tests take the spool's directory away, as a dying disk or a
// stray rm would, and check that nothing past the failure reaches a
// client or is acked to a producer, and that no client takes the stop
// for the end of the feed.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
)

// failingServer is a broker with a 16-event tail on a spool with 4 KiB
// segments, and fail removes the spool's directory: the next segment
// roll, cutover note or snapshot write fails.
func failingServer(t *testing.T) (srv *Server, sp *spool.Spool, fail func()) {
	t.Helper()
	dir := t.TempDir()
	sp, err := spool.Open(dir, spool.WithSegmentBytes(4096))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	srv, err = NewServer("127.0.0.1:0", WithReplayBuffer(16), WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sp, func() { os.RemoveAll(dir) }
}

// watchFeed drains c in the background until RecvBatch fails: last is
// the newest sequence c received, and ended yields the error that ended
// it.
func watchFeed(c *Client) (last *atomic.Uint64, ended <-chan error) {
	last = new(atomic.Uint64)
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := c.RecvBatch(); err != nil {
				done <- err
				return
			}
			last.Store(c.LastSeq())
		}
	}()
	return last, done
}

// waitSeq waits until the watched client received sequence seq.
func waitSeq(t *testing.T, last *atomic.Uint64, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for last.Load() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("the subscriber received through %d, want %d", last.Load(), seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitEnd returns the error that ended a watched client, which a
// stopped broker must end.
func awaitEnd(t *testing.T, ended <-chan error) error {
	t.Helper()
	select {
	case err := <-ended:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("the subscriber is still served by a broker whose spool failed")
		return nil
	}
}

// TestSpoolFailureStopsBroker: a root whose spool directory goes
// mid-campaign stops at the next segment roll. Its subscriber loses the
// connection, without eof, and never receives a sequence past the
// spool's end; the producer is acked for nothing past it and its Close
// fails; the broker admits no new subscriber, names the failure,
// closes IngestDone, and counts as broadcast only what the spool took.
func TestSpoolFailureStopsBroker(t *testing.T) {
	leakCheck(t)
	srv, sp, fail := failingServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kick()
	last, ended := watchFeed(c)
	const batch = 100
	pub, err := NewPublisher(srv.Addr(), "p", 1, withPublishMaxBatch(batch),
		withPublishFlushEvery(time.Hour), withPublishRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Abort()
	publish := func(b int) { // one pbatch: events b*batch+1 .. (b+1)*batch of the feed
		for i := 0; i < batch; i++ {
			pub.Publish(pubEvent(0, b*batch+i)) // fails once the broker severed the producer
		}
	}
	publish(0)
	waitSeq(t, last, batch)
	fail()
	for b := 1; b < 200 && srv.Stats().SpoolErr == ""; b++ {
		publish(b)
	}
	if srv.Stats().SpoolErr == "" {
		t.Fatal("the spool never failed")
	}
	end := sp.End()
	if st := srv.Stats(); st.Broadcast != st.SpoolEnd || st.SpoolEnd != end {
		t.Fatalf("stopped broker reports Broadcast %d, SpoolEnd %d; the spool ends at %d: the failed batch's reserved sequences were never published",
			st.Broadcast, st.SpoolEnd, end)
	}
	if err := awaitEnd(t, ended); errors.Is(err, ErrClosed) {
		t.Fatalf("the subscriber read the stop as the end of the feed: %v", err)
	}
	if got := last.Load(); got > end {
		t.Fatalf("the subscriber received seq %d, past the spool's end %d", got, end)
	}
	if err := pub.Close(); err == nil {
		t.Fatal("the producer's Close succeeded on a stopped broker")
	}
	if acked := pub.Stats().Acked * batch; acked > end {
		t.Fatalf("the producer was acked through seq %d, past the spool's end %d", acked, end)
	}
	if c2, err := Dial(srv.Addr()); err == nil {
		c2.Close()
		t.Fatal("a stopped broker admitted a new subscriber")
	}
	select {
	case <-srv.IngestDone():
	default:
		t.Fatal("IngestDone is still open on a stopped broker")
	}
}

// TestFailedCutoverNoteStopsBroker: a prepare whose cutover note cannot
// be written stops the broker before its record is published. The
// prepare is refused, the whole-feed subscriber never receives the
// record and loses the connection without eof, a spare waiting for a
// held key does not take the stop for the end of the feed, and the
// broker names the failure and admits nobody.
func TestFailedCutoverNoteStopsBroker(t *testing.T) {
	leakCheck(t)
	srv, _, fail := failingServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kick()
	last, ended := watchFeed(c)
	holder, err := Dial(srv.Addr(), WithPartition(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Kick()
	spare := make(chan error, 1)
	go func() { spare <- SubscribeBatch(srv.Addr(), func([]osn.Event) {}, 1, WithPartition(0, 2)) }()
	for deadline := time.Now().Add(5 * time.Second); srv.log.heldAt.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the spare was never refused as held")
		}
	}
	for i := 0; i < 10; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	waitSeq(t, last, 10)
	fail()
	if b, err := PrepareRebalance(srv.Addr(), 2, 3); err == nil {
		t.Fatalf("the prepare was confirmed at barrier %d with no note beside the log", b)
	}
	if err := awaitEnd(t, ended); errors.Is(err, ErrClosed) {
		t.Fatalf("the subscriber read the stop as the end of the feed: %v", err)
	}
	if got := last.Load(); got != 10 {
		t.Fatalf("the subscriber received through seq %d, want 10: the record at 11 was published", got)
	}
	select {
	case err := <-spare:
		if err == nil || errors.Is(err, ErrClosed) {
			t.Fatalf("the waiting spare ended with %v: it took the stop for the end of the feed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting spare still waits on a stopped broker")
	}
	if st := srv.Stats(); !strings.Contains(st.SpoolErr, "cutover") {
		t.Fatalf("SpoolErr = %q, want the failed cutover note", st.SpoolErr)
	}
	if c2, err := Dial(srv.Addr()); err == nil {
		c2.Close()
		t.Fatal("a stopped broker admitted a new subscriber")
	}
}

// TestRelaySpoolFailureEndsRelay: a relay hop whose own spool fails
// stops, and its Wait returns the failure instead of redialing the
// root. The hop's subscriber loses the connection without eof, having
// received nothing past the hop's spool, and the root keeps serving.
func TestRelaySpoolFailureEndsRelay(t *testing.T) {
	leakCheck(t)
	root, _ := spooledServer(t, 16)
	dir := t.TempDir()
	sp, err := spool.Open(dir, spool.WithSegmentBytes(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	relay, err := NewRelay("127.0.0.1:0", root.Addr(), WithRelayServer(WithSpool(sp), WithReplayBuffer(16)))
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	waited := make(chan error, 1)
	go func() { waited <- relay.Wait() }()
	c, err := Dial(relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kick()
	last, ended := watchFeed(c)
	next := 0
	broadcast := func(n int) {
		for ; n > 0; n-- {
			root.BroadcastBatch([]osn.Event{testEvent(next)})
			next++
		}
	}
	broadcast(100)
	waitSeq(t, last, 100)
	os.RemoveAll(dir)
	for next < 20000 && len(waited) == 0 {
		broadcast(100)
	}
	var werr error
	select {
	case werr = <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("the relay hop kept running on a failed spool")
	}
	if st := relay.Server().Stats(); werr == nil || st.SpoolErr == "" || werr.Error() != st.SpoolErr {
		t.Fatalf("Wait = %v, SpoolErr %q; want Wait to return the failure that stopped the hop", werr, st.SpoolErr)
	}
	if err := awaitEnd(t, ended); errors.Is(err, ErrClosed) {
		t.Fatalf("the hop's subscriber read the stop as the end of the feed: %v", err)
	}
	if got, end := last.Load(), sp.End(); got > end {
		t.Fatalf("the hop's subscriber received seq %d, past the hop's spool end %d", got, end)
	}
	c2, err := Dial(root.Addr())
	if err != nil {
		t.Fatalf("the root stopped serving: %v", err)
	}
	defer c2.Close()
	broadcast(1)
	recvThrough(t, c2, uint64(next))
	if st := root.Stats(); st.SpoolErr != "" {
		t.Fatalf("the root's SpoolErr = %q, want none", st.SpoolErr)
	}
}

// TestUnreadableSpoolSessionCountedLost: a session whose range the
// spool cannot serve — here the first segment's first frame is
// overwritten — is evicted loudly, and that eviction is the loss
// ServerStats.Evicted counts, once.
func TestUnreadableSpoolSessionCountedLost(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	sp, err := spool.Open(dir, spool.WithSegmentBytes(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	srv, err := NewServer("127.0.0.1:0", WithReplayBuffer(16), WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 2000; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	segs, err := filepath.Glob(filepath.Join(dir, "spool-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments %v (%v), want a sealed first one", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt(bytes.Repeat([]byte{0xff}, 16), 4)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialFrom(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RecvBatch(); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("catch-up over a corrupt frame: err = %v, want a lost connection", err)
	}
	waitStats(t, srv, "the lost session counted", func(st ServerStats) bool { return st.Evicted == 1 && st.Sessions == 0 })
}
