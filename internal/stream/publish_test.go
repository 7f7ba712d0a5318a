package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// pubEvent tags an event so a test can attribute it to a producer and
// a position in that producer's stream: Actor is the producer index,
// At the per-producer event index.
func pubEvent(producer, i int) osn.Event {
	return osn.Event{Type: osn.EvMessage, At: int64(i), Actor: osn.AccountID(producer), Target: 1}
}

// drainAll collects the whole feed through eof, returning the events
// in delivery order. Runs in the caller's goroutine.
func drainAll(t *testing.T, c *Client) []osn.Event {
	t.Helper()
	var got []osn.Event
	for {
		evs, err := c.RecvBatch()
		if errors.Is(err, ErrClosed) {
			return got
		}
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		got = append(got, evs...)
	}
}

// closeOnIngestDone closes the server (drain + downstream eof) once
// every producer has closed its epoch — the broker owner's loop, as
// cmd/streamd runs it.
func closeOnIngestDone(srv *Server) {
	go func() {
		<-srv.IngestDone()
		srv.Close()
	}()
}

func TestPublishDelivery(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pub, err := NewPublisher(srv.Addr(), "p0", 1, withPublishMaxBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	if pub.Epoch() != 1 || pub.SkipEvents() != 0 {
		t.Fatalf("fresh producer: epoch=%d skip=%d, want 1,0", pub.Epoch(), pub.SkipEvents())
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := pub.Publish(pubEvent(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	closeOnIngestDone(srv)
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}

	got := drainAll(t, sub)
	if len(got) != n {
		t.Fatalf("delivered %d events, want %d", len(got), n)
	}
	for i, ev := range got {
		if ev.At != int64(i) {
			t.Fatalf("event %d out of order: At=%d", i, ev.At)
		}
	}
	sub.Close()
	srv.Close() // synchronize: waits for connection goroutines, so all acks are counted
	st := srv.Stats()
	if st.Broadcast != n || st.Delivered != n {
		t.Fatalf("audit: sent=%d delivered=%d, want %d==%d", st.Broadcast, st.Delivered, n, n)
	}
	if len(st.PerProducer) != 1 {
		t.Fatalf("PerProducer: %+v", st.PerProducer)
	}
	ps := st.PerProducer[0]
	if ps.ID != "p0" || ps.Events != n || ps.Epoch != 1 || !ps.EOF || ps.DedupeDrops != 0 {
		t.Fatalf("producer stats: %+v", ps)
	}
}

// TestPublishInterleavedStress exercises the concurrent-producer
// ingest path under the race detector: several publishers hammer one
// broker at tiny batch sizes, and the merged feed must contain every
// producer's stream as an order-preserved subsequence with nothing
// lost, duplicated, or reordered within a producer.
func TestPublishInterleavedStress(t *testing.T) {
	leakCheck(t)
	const producers, perProducer = 4, 2000
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			pub, err := NewPublisher(srv.Addr(), fmt.Sprintf("p%d", pi), producers,
				withPublishMaxBatch(7), withPublishWindow(4))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perProducer; i++ {
				if err := pub.Publish(pubEvent(pi, i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- pub.Close()
		}(pi)
	}
	closeOnIngestDone(srv)

	// Drain concurrently: total traffic exceeds the replay window, so
	// the producers need the subscriber's acks to make progress.
	got := drainAll(t, sub)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != producers*perProducer {
		t.Fatalf("delivered %d events, want %d", len(got), producers*perProducer)
	}
	next := make([]int64, producers)
	for _, ev := range got {
		pi := int(ev.Actor)
		if ev.At != next[pi] {
			t.Fatalf("producer %d stream broken: got At=%d, want %d", pi, ev.At, next[pi])
		}
		next[pi]++
	}
	sub.Close()
	srv.Close() // synchronize before reading the audit
	st := srv.Stats()
	if st.Delivered != uint64(producers*perProducer) {
		t.Fatalf("audit: sent=%d delivered=%d", st.Broadcast, st.Delivered)
	}
}

// rawProducer drives the publish sub-protocol frame by frame, so
// tests control exactly what is sent and when — the wire-level
// equivalent of a misbehaving or crash-prone producer.
type rawProducer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRawProducer(t *testing.T, addr, id string, group int, epoch uint64) (*rawProducer, frame) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &rawProducer{t: t, conn: conn, br: bufio.NewReader(conn)}
	p.send(frame{T: framePHello, V: ProtocolVersion, Producer: id, Producers: group, Epoch: epoch})
	return p, p.recv()
}

func (p *rawProducer) send(f frame) {
	p.t.Helper()
	if err := writeControl(p.conn, f); err != nil {
		p.t.Fatal(err)
	}
}

func (p *rawProducer) sendBatch(bseq uint64, evs []osn.Event) {
	p.t.Helper()
	if err := writeFrame(p.conn, wire.AppendPBatch(nil, bseq, evs)); err != nil {
		p.t.Fatal(err)
	}
}

func (p *rawProducer) recv() frame {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := readFrame(p.br, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	var f frame
	if err := json.Unmarshal(payload, &f); err != nil {
		p.t.Fatal(err)
	}
	return f
}

// TestPublishReconnectDedupe is the sequencer's dedupe property: a
// producer that loses its connection after the broker sequenced a
// batch but before the ack arrived resends it on reconnect, and the
// broker delivers it downstream exactly once.
func TestPublishReconnectDedupe(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	p, w := dialRawProducer(t, srv.Addr(), "p0", 1, 0)
	if w.Err != "" || w.Epoch != 1 {
		t.Fatalf("pwelcome: %+v", w)
	}
	p.sendBatch(1, []osn.Event{pubEvent(0, 0), pubEvent(0, 1)})
	p.sendBatch(2, []osn.Event{pubEvent(0, 2)})
	if a := p.recv(); a.T != framePAck || a.Bseq != 1 {
		t.Fatalf("ack: %+v", a)
	}
	if a := p.recv(); a.T != framePAck || a.Bseq != 2 {
		t.Fatalf("ack: %+v", a)
	}
	// The connection dies with batch 2's ack "lost" from the
	// producer's point of view: reconnect in the same epoch and learn
	// the broker already has it.
	p.conn.Close()
	p2, w2 := dialRawProducer(t, srv.Addr(), "p0", 1, 1)
	if w2.Err != "" || w2.Epoch != 1 || w2.Bseq != 2 || w2.Count != 3 {
		t.Fatalf("reconnect pwelcome: %+v", w2)
	}
	// A paranoid producer resends batch 2 anyway; the broker must
	// drop it (acking the high-water mark) and sequence only batch 3.
	p2.sendBatch(2, []osn.Event{pubEvent(0, 2)})
	p2.sendBatch(3, []osn.Event{pubEvent(0, 3)})
	if a := p2.recv(); a.T != framePAck || a.Bseq != 2 {
		t.Fatalf("replay ack: %+v", a)
	}
	if a := p2.recv(); a.T != framePAck || a.Bseq != 3 {
		t.Fatalf("ack: %+v", a)
	}
	p2.send(frame{T: framePEOF})
	if f := p2.recv(); f.T != framePEOF {
		t.Fatalf("peof confirmation: %+v", f)
	}
	p2.conn.Close()

	closeOnIngestDone(srv)
	got := drainAll(t, sub)
	if len(got) != 4 {
		t.Fatalf("delivered %d events, want 4 (replay must dedupe)", len(got))
	}
	for i, ev := range got {
		if ev.At != int64(i) {
			t.Fatalf("event %d: At=%d", i, ev.At)
		}
	}
	sub.Close()
	st := srv.Stats()
	if len(st.PerProducer) != 1 || st.PerProducer[0].DedupeDrops != 1 {
		t.Fatalf("dedupe drops not counted: %+v", st.PerProducer)
	}
}

// TestPublishBatchGapRejected: a producer that skips a batch sequence
// is cut off rather than silently creating a hole.
func TestPublishBatchGapRejected(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, w := dialRawProducer(t, srv.Addr(), "p0", 1, 0)
	if w.Err != "" {
		t.Fatalf("pwelcome: %+v", w)
	}
	p.sendBatch(1, []osn.Event{pubEvent(0, 0)})
	if a := p.recv(); a.T != framePAck || a.Bseq != 1 {
		t.Fatalf("ack: %+v", a)
	}
	p.sendBatch(3, []osn.Event{pubEvent(0, 9)}) // gap: batch 2 never sent
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(p.br, nil); err == nil {
		t.Fatal("broker acked across a batch sequence gap")
	}
}

// TestPublishUndecodableBatchRefused: a pbatch that does not decode —
// here a hand-written v2 JSON one, a form this broker no longer speaks
// — is refused with a pack carrying the reason before the broker hangs
// up, and nothing reaches the feed.
func TestPublishUndecodableBatchRefused(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, w := dialRawProducer(t, srv.Addr(), "p0", 1, 0)
	if w.Err != "" {
		t.Fatalf("pwelcome: %+v", w)
	}
	v2 := []byte(`{"t":"pbatch","bseq":1,"events":[{"type":"ban","at":1,"actor":0,"target":7}]}`)
	if err := writeFrame(p.conn, v2); err != nil {
		t.Fatal(err)
	}
	if a := p.recv(); a.T != framePAck || a.Err == "" {
		t.Fatalf("reply to an undecodable pbatch: %+v, want a pack carrying err", a)
	}
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(p.br, nil); err == nil {
		t.Fatal("broker kept the connection open after the refusal")
	}
	if st := srv.Stats(); st.Broadcast != 0 {
		t.Fatalf("the refused pbatch reached the feed: %d events sequenced", st.Broadcast)
	}
}

// TestPeofConfirmedBeforeIngestDone: the broker confirms a producer's
// peof before it closes the epoch. Closing the last epoch closes
// IngestDone, and a broker that shuts down on it (streamd at its
// default -linger 0) severs every producer connection: a confirmation
// written after the close raced that cut, and a Publisher that lost it
// redialed a closed listener until it gave up.
func TestPeofConfirmedBeforeIngestDone(t *testing.T) {
	leakCheck(t)
	const exchanges = 128
	for i := 0; i < exchanges; i++ {
		srv, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		closeOnIngestDone(srv)
		p, welcome := dialRawProducer(t, srv.Addr(), "p0", 1, 0)
		if welcome.T != framePWelcome || welcome.Err != "" {
			t.Fatalf("exchange %d: phello answered %+v", i, welcome)
		}
		p.send(frame{T: framePEOF})
		p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		payload, err := readFrame(p.br, nil)
		if err != nil {
			t.Fatalf("exchange %d: peof confirmation lost: %v", i, err)
		}
		var f frame
		if err := json.Unmarshal(payload, &f); err != nil || f.T != framePEOF {
			t.Fatalf("exchange %d: peof answered %q", i, payload)
		}
		p.conn.Close()
		<-srv.IngestDone()
		srv.Close() // waits out the Close the ingest-done hook began
	}
}

// TestEOFAfterLastEpoch: with K producers registered, the downstream
// feed must not end until the last one closes its epoch.
func TestEOFAfterLastEpoch(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pubs := make([]*Publisher, 2)
	for i := range pubs {
		pubs[i], err = NewPublisher(srv.Addr(), fmt.Sprintf("p%d", i), 2)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := pubs[0].Publish(pubEvent(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := pubs[0].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.IngestDone():
		t.Fatal("ingest reported done with one of two producers still open")
	case <-time.After(50 * time.Millisecond):
	}
	if err := pubs[1].Publish(pubEvent(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := pubs[1].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.IngestDone():
	case <-time.After(5 * time.Second):
		t.Fatal("ingest never completed after the last epoch closed")
	}
	closeOnIngestDone(srv)
	if got := drainAll(t, sub); len(got) != 2 {
		t.Fatalf("delivered %d events, want 2", len(got))
	}
}

// TestRestartedProducerResumesViaSkip is the process-death half of
// exactly-once: a producer dies without closing (transport-level
// kill -9), and its deterministic successor — same id, fresh epoch —
// learns from the broker how many events are already sequenced, skips
// them, and publishes the rest. Downstream sees each event once.
func TestRestartedProducerResumesViaSkip(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const total = 900
	pub, err := NewPublisher(srv.Addr(), "p0", 1, withPublishMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total/3; i++ {
		if err := pub.Publish(pubEvent(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Let every flushed batch reach the broker before dying — an
	// immediate abort could fence the whole epoch's in-flight batches
	// (also correct, but then there is no skip to assert on).
	for deadline := time.Now().Add(5 * time.Second); ; {
		st := pub.Stats()
		if st.Acked == st.Batches {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("broker never acked the backlog: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	pub.Abort() // die mid-feed, epoch never closed

	resumed, err := NewPublisher(srv.Addr(), "p0", 1, withPublishMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Epoch() != 2 {
		t.Fatalf("restart epoch: %d, want 2", resumed.Epoch())
	}
	skip := resumed.SkipEvents()
	if skip == 0 || skip > total/3 {
		t.Fatalf("skip=%d, want in (0, %d]", skip, total/3)
	}
	// Deterministic regeneration: replay the same stream, skipping the
	// prefix the broker already holds.
	for i := int(skip); i < total; i++ {
		if err := resumed.Publish(pubEvent(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	closeOnIngestDone(srv)
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, sub)
	if len(got) != total {
		t.Fatalf("delivered %d events, want %d (no gaps, no duplicates)", len(got), total)
	}
	for i, ev := range got {
		if ev.At != int64(i) {
			t.Fatalf("event %d: At=%d", i, ev.At)
		}
	}
}

// TestStaleEpochFenced: once a successor has taken a fresh epoch, the
// predecessor's zombie connection is refused, and the predecessor's
// Publisher stops at the refusal instead of redialing through its
// retries.
func TestStaleEpochFenced(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first, err := NewPublisher(srv.Addr(), "p0", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A zombie from before the restart phellos with the old epoch 1 —
	// but the live publisher above already moved the producer to
	// epoch 1, so ask with an epoch that was fenced off: simulate by
	// taking epoch 2 (restart), then phello with epoch 1.
	if _, err := NewPublisher(srv.Addr(), "p0", 1); err != nil {
		t.Fatal(err)
	}
	_, w := dialRawProducer(t, srv.Addr(), "p0", 1, 1)
	if w.Err == "" {
		t.Fatalf("stale epoch admitted: %+v", w)
	}
	start := time.Now()
	if err := first.Close(); err == nil || !strings.Contains(err.Error(), "stale epoch 1") {
		t.Fatalf("fenced publisher's Close = %v, want the stale-epoch refusal", err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("fenced publisher took %v to stop", d)
	}
}

// TestProducerGroupSizeMismatch: all producers must agree on the
// group size the downstream eof waits for.
func TestProducerGroupSizeMismatch(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := NewPublisher(srv.Addr(), "p0", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPublisher(srv.Addr(), "p1", 2); err == nil {
		t.Fatal("mismatched group size admitted")
	}
}

// TestDialFromBackfillsSpooledHistory: a brand-new subscriber joins
// with from=1 and receives the feed's entire spooled history before
// flipping live — the feed as a replayable log, not just a resumable
// one.
func TestDialFromBackfillsSpooledHistory(t *testing.T) {
	leakCheck(t)
	srv, _ := spooledServer(t, 16)
	const history = 400
	for i := 0; i < history; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	c, err := DialFrom(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recvThrough(t, c, history)
	// Still live after the backfill: a fresh broadcast arrives.
	srv.BroadcastBatch([]osn.Event{testEvent(history)})
	recvThrough(t, c, history+1)
}

// TestDialFromHeadOfEmptyFeed: from=1 on a feed that has nothing yet
// admits a live session (nothing to backfill), even without a spool.
func TestDialFromHeadOfEmptyFeed(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialFrom(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.BroadcastBatch([]osn.Event{testEvent(0)})
	recvThrough(t, c, 1)
}

// TestDialFromBelowRetentionIsErrGap: history pruned past the
// requested sequence rejects loudly with ErrGap, while a server given
// no spool still backfills its whole history from its private one.
func TestDialFromBelowRetentionIsErrGap(t *testing.T) {
	leakCheck(t)
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
	c, err := Dial(srv.Addr()) // acked subscriber so pruning can move the floor
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2000; i++ {
		srv.BroadcastBatch([]osn.Event{testEvent(i)})
		if i%16 == 0 {
			recvThrough(t, c, uint64(i+1))
		}
	}
	recvThrough(t, c, 2000)
	if sp.First() <= 1 {
		t.Skip("retention did not prune far enough to exercise the floor")
	}
	if _, err := DialFrom(srv.Addr(), 1); !errors.Is(err, ErrGap) {
		t.Fatalf("backfill below the retention floor: err=%v, want ErrGap", err)
	}

	private, err := NewServer("127.0.0.1:0", WithReplayBuffer(16))
	if err != nil {
		t.Fatal(err)
	}
	defer private.Close()
	for i := 0; i < 100; i++ { // history runs past the in-memory tail
		private.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	b, err := DialFrom(private.Addr(), 1)
	if err != nil {
		t.Fatalf("backfill on a privately spooled feed: %v", err)
	}
	defer b.Close()
	recvThrough(t, b, 100)
}

// TestPublishIntoSpooledBroker: wire-produced batches land in the
// spool like Broadcast ones, so a late subscriber can backfill a
// multi-producer feed from sequence 1.
func TestPublishIntoSpooledBroker(t *testing.T) {
	leakCheck(t)
	srv, sp := spooledServer(t, 16)
	const producers, perProducer = 3, 200
	var wg sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			pub, err := NewPublisher(srv.Addr(), fmt.Sprintf("p%d", pi), producers, withPublishMaxBatch(10))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perProducer; i++ {
				if err := pub.Publish(pubEvent(pi, i)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := pub.Close(); err != nil {
				t.Error(err)
			}
		}(pi)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if end := sp.End(); end != producers*perProducer {
		t.Fatalf("spool end %d, want %d", end, producers*perProducer)
	}
	// No subscriber was connected while the producers ran; the spool
	// alone serves the whole history.
	c, err := DialFrom(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []osn.Event
	for len(got) < producers*perProducer {
		evs, err := c.RecvBatch()
		if err != nil {
			t.Fatalf("backfill: %v", err)
		}
		got = append(got, evs...)
	}
	next := make([]int64, producers)
	for _, ev := range got {
		pi := int(ev.Actor)
		if ev.At != next[pi] {
			t.Fatalf("producer %d stream broken in backfill: got At=%d, want %d", pi, ev.At, next[pi])
		}
		next[pi]++
	}
}

// TestAbortInterruptsReconnect: Abort is the emergency stop, so it
// must cut through a reconnect backoff ladder instead of queueing
// behind it (the publisher releases its lock around dial and sleep).
func TestAbortInterruptsReconnect(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(srv.Addr(), "p0", 1, withPublishRetries(100))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // broker gone: the next flush enters the retry ladder

	done := make(chan error, 1)
	go func() {
		var perr error
		for i := 0; perr == nil && i < 10000; i++ {
			perr = pub.Publish(pubEvent(0, i))
		}
		done <- perr
	}()
	time.Sleep(50 * time.Millisecond) // let the publisher hit reconnect
	start := time.Now()
	pub.Abort()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("publishing into a dead broker never failed")
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("Publish took %v to observe Abort", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Abort did not interrupt the reconnect ladder")
	}
}
