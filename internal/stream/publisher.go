package stream

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"encoding/json"

	"sybilwild/internal/osn"
	"sybilwild/internal/wire"
)

// This file is the producer half of the publish sub-protocol: the
// client a simulation shard (or any event source) uses to feed a
// broker over the wire. The broker half is publish.go; the frame
// vocabulary is in wire.go.

// Publisher defaults; each has a PublisherOption override.
const (
	// DefaultPublishWindow is the maximum unacknowledged batches a
	// publisher keeps in flight before blocking — the producer-side
	// backpressure bound, and exactly the set resent after a
	// reconnect.
	DefaultPublishWindow = 64
	// DefaultPublishRetries bounds consecutive reconnect attempts.
	DefaultPublishRetries = 10
)

// ErrPublisherClosed is returned by Publish after Close or Abort.
var ErrPublisherClosed = errors.New("stream: publisher closed")

type publisherOptions struct {
	maxBatch   int
	flushEvery time.Duration
	window     int
	retries    int
}

// PublisherOption configures NewPublisher.
type PublisherOption func(*publisherOptions)

// withPublishMaxBatch sets the events coalesced per pbatch frame.
func withPublishMaxBatch(n int) PublisherOption {
	return func(o *publisherOptions) {
		if n > 0 {
			o.maxBatch = n
		}
	}
}

// withPublishFlushEvery bounds how long a partially filled batch may
// sit before the next Publish call flushes it.
func withPublishFlushEvery(d time.Duration) PublisherOption {
	return func(o *publisherOptions) {
		if d > 0 {
			o.flushEvery = d
		}
	}
}

// withPublishWindow sets the maximum unacknowledged batches in flight.
func withPublishWindow(n int) PublisherOption {
	return func(o *publisherOptions) {
		if n > 0 {
			o.window = n
		}
	}
}

// withPublishRetries sets the maximum consecutive reconnect attempts.
func withPublishRetries(n int) PublisherOption {
	return func(o *publisherOptions) {
		if n >= 0 {
			o.retries = n
		}
	}
}

// PublisherStats is a publisher's send-side accounting.
type PublisherStats struct {
	Batches uint64 // batches sent (first transmission only)
	Events  uint64 // events published
	Acked   uint64 // highest batch sequence the broker has acknowledged
	Resent  uint64 // batches retransmitted after reconnects (deduped by the broker)
}

// pubBatch is one encoded, unacknowledged batch retained for resend.
type pubBatch struct {
	bseq    uint64
	events  int
	payload []byte
}

// Publisher feeds events into a broker over the publish sub-protocol.
// It coalesces events into pbatch frames, keeps a bounded window of
// unacknowledged batches for resend, reconnects transparently within
// its epoch (the broker deduplicates the resends), and closes the
// producer's epoch with a confirmed peof. A Publisher is not safe for
// concurrent use.
//
// Exactly-once across process death is a joint contract with a
// deterministic event source: NewPublisher with a fresh epoch learns
// from the broker how many of this producer's events are already
// sequenced (SkipEvents), and the restarted source regenerates and
// skips exactly that many before publishing the rest.
type Publisher struct {
	addr  string
	id    string
	group int
	opt   publisherOptions

	mu   sync.Mutex
	cond *sync.Cond // ack progress, peof confirmation, or connection death

	conn net.Conn // nil while detached
	bw   *bufio.Writer
	gen  int // connection generation; stale ack readers exit on mismatch

	epoch uint64
	skip  uint64 // events already sequenced from this producer (restart cursor)

	bseq    uint64 // last batch sequence assigned
	acked   uint64 // highest batch sequence acknowledged
	unacked []pubBatch
	// free holds the payload buffers of retired batches for the next
	// flushes to encode into. A buffer enters it only once its batch is
	// acknowledged — an unacked payload may still be resent — so it never
	// holds more than the publish window.
	free   [][]byte
	eofAck bool

	cur        []osn.Event // batch under construction
	curStarted time.Time
	closed     bool
	err        error // terminal failure; sticky

	stats PublisherStats
}

// NewPublisher connects to a broker and registers producer id within
// a group of `group` producers jointly generating one feed (the
// broker holds the downstream eof until all of them close). It always
// requests a fresh epoch; a restarted process therefore fences any
// zombie connection from its predecessor, and SkipEvents reports how
// far the predecessor's events already made it into the log.
func NewPublisher(addr, id string, group int, opts ...PublisherOption) (*Publisher, error) {
	if id == "" || group < 1 {
		return nil, errors.New("stream: publisher needs an id and a group size ≥ 1")
	}
	p := &Publisher{
		addr:  addr,
		id:    id,
		group: group,
		opt: publisherOptions{
			maxBatch:   DefaultMaxBatch,
			flushEvery: DefaultFlushEvery,
			window:     DefaultPublishWindow,
			retries:    DefaultPublishRetries,
		},
	}
	for _, fn := range opts {
		fn(&p.opt)
	}
	p.cond = sync.NewCond(&p.mu)
	conn, br, welcome, err := p.dial(0)
	if err != nil {
		return nil, err
	}
	p.epoch = welcome.Epoch
	p.skip = welcome.Count
	p.mu.Lock()
	p.attachLocked(conn, br)
	p.mu.Unlock()
	return p, nil
}

// dial connects to the broker and exchanges phello/pwelcome for the
// given epoch (0 requests a fresh one). On success the returned reader
// carries any broker bytes buffered past the welcome and must be the
// one the ack loop keeps reading.
func (p *Publisher) dial(epoch uint64) (net.Conn, *bufio.Reader, frame, error) {
	conn, err := dialBroker(p.addr)
	if err != nil {
		return nil, nil, frame{}, err
	}
	hello := frame{T: framePHello, V: ProtocolVersion, Producer: p.id, Producers: p.group, Epoch: epoch}
	welcome, br, err := handshake(conn, hello, nil, framePWelcome)
	if err != nil {
		conn.Close()
		return nil, nil, frame{}, err
	}
	return conn, br, welcome, nil
}

// attachLocked binds a fresh connection and starts its ack reader.
// p.mu must be held.
func (p *Publisher) attachLocked(conn net.Conn, br *bufio.Reader) {
	p.gen++
	p.conn = conn
	p.bw = bufio.NewWriterSize(conn, 64<<10)
	go p.ackLoop(conn, br, p.gen)
}

// ackLoop consumes broker→producer frames (pack, peof confirmation)
// until the connection dies or a newer one supersedes it.
func (p *Publisher) ackLoop(conn net.Conn, br *bufio.Reader, gen int) {
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			p.mu.Lock()
			if p.gen == gen && p.conn == conn {
				p.conn = nil
				conn.Close()
			}
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		buf = payload
		var f frame
		if json.Unmarshal(payload, &f) != nil {
			continue
		}
		p.mu.Lock()
		if p.gen != gen {
			p.mu.Unlock()
			return
		}
		switch {
		case f.T == framePAck && f.Err != "":
			// The broker refused a batch; resending it would only be
			// refused again.
			if p.err == nil {
				p.err = fmt.Errorf("stream: pbatch refused: %s", f.Err)
			}
		case f.T == framePAck:
			p.retireLocked(f.Bseq)
		case f.T == framePEOF:
			p.eofAck = true
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// retireLocked records the broker's acknowledgement of every batch up
// to bseq: their payload buffers move to the free list and the window
// is compacted in place, so neither the payloads nor the window slice
// are reallocated in steady state. p.mu must be held.
func (p *Publisher) retireLocked(bseq uint64) {
	if bseq <= p.acked {
		return
	}
	p.acked = bseq
	p.stats.Acked = bseq
	i := 0
	for i < len(p.unacked) && p.unacked[i].bseq <= bseq {
		p.free = append(p.free, p.unacked[i].payload)
		i++
	}
	n := copy(p.unacked, p.unacked[i:])
	clear(p.unacked[n:])
	p.unacked = p.unacked[:n]
}

// Epoch returns the broker-granted epoch this publisher runs under.
func (p *Publisher) Epoch() uint64 { return p.epoch }

// SkipEvents returns how many of this producer's events the broker
// already holds from previous epochs. A deterministic producer
// regenerates its event stream and skips exactly this many — the
// exactly-once half that lives above the transport.
func (p *Publisher) SkipEvents() uint64 { return p.skip }

// Stats returns a snapshot of send-side accounting.
func (p *Publisher) Stats() PublisherStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Publish queues one event, flushing the current batch when it is
// full or has aged past the flush interval. It blocks when the
// unacknowledged window is full (broker backpressure) and reconnects
// transparently if the connection has died.
func (p *Publisher) Publish(ev osn.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if p.closed {
		return ErrPublisherClosed
	}
	if len(p.cur) == 0 {
		p.curStarted = time.Now()
	}
	p.cur = append(p.cur, ev)
	if len(p.cur) >= p.opt.maxBatch || time.Since(p.curStarted) >= p.opt.flushEvery {
		return p.flushLocked()
	}
	return nil
}

// Flush sends the batch under construction, if any.
func (p *Publisher) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if p.closed {
		return ErrPublisherClosed
	}
	if len(p.cur) == 0 {
		return nil
	}
	return p.flushLocked()
}

// flushLocked seals the current batch, waits for window space, and
// transmits. p.mu must be held.
func (p *Publisher) flushLocked() error {
	for len(p.unacked) >= p.opt.window {
		if p.err != nil {
			return p.err
		}
		if p.conn == nil {
			if err := p.reconnectLocked(); err != nil {
				return err
			}
			continue
		}
		p.cond.Wait()
	}
	p.bseq++
	var buf []byte
	if n := len(p.free); n > 0 {
		buf, p.free = p.free[n-1][:0], p.free[:n-1]
	}
	pb := pubBatch{
		bseq:    p.bseq,
		events:  len(p.cur),
		payload: wire.AppendPBatch(buf, p.bseq, p.cur),
	}
	p.unacked = append(p.unacked, pb)
	p.stats.Batches++
	p.stats.Events += uint64(pb.events)
	p.cur = p.cur[:0]
	if p.conn == nil {
		// reconnectLocked resends the whole unacked window, which now
		// includes this batch.
		return p.reconnectLocked()
	}
	if err := p.writeBatchLocked(pb); err != nil {
		return p.reconnectLocked()
	}
	return nil
}

// writeBatchLocked transmits one encoded batch on the current
// connection, detaching it on failure. p.mu must be held.
func (p *Publisher) writeBatchLocked(pb pubBatch) error {
	if err := writeFrame(p.bw, pb.payload); err == nil {
		if err = p.bw.Flush(); err == nil {
			return nil
		}
	}
	p.detachLocked()
	return errors.New("stream: publish write failed")
}

// detachLocked severs the current connection (the broker keeps the
// session; a same-epoch reconnect resumes it). p.mu must be held.
func (p *Publisher) detachLocked() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// reconnectLocked re-dials within the current epoch and retransmits
// every unacknowledged batch (the broker's dedupe drops the ones it
// already sequenced). Exponential backoff, bounded by the retries
// option; a final failure is sticky. p.mu must be held on entry and
// is held on return, but is released around each dial and backoff
// sleep so Abort (and Stats polls) never block behind the retry
// ladder.
func (p *Publisher) reconnectLocked() error {
	if p.err != nil {
		return p.err
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= p.opt.retries; attempt++ {
		p.mu.Unlock()
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
		conn, br, welcome, err := p.dial(p.epoch)
		p.mu.Lock()
		if p.closed || p.err != nil {
			// Aborted while we were dialing.
			if err == nil {
				conn.Close()
			}
			if p.err != nil {
				return p.err
			}
			return ErrPublisherClosed
		}
		if err != nil {
			lastErr = err
			continue
		}
		// The broker reports what it already has; retire those batches
		// and resend the remainder in order on the new connection.
		p.retireLocked(welcome.Bseq)
		p.gen++
		p.conn = conn
		p.bw = bufio.NewWriterSize(conn, 64<<10)
		ok := true
		for _, pb := range p.unacked {
			if err := writeFrame(p.bw, pb.payload); err != nil {
				ok = false
				break
			}
			p.stats.Resent++
		}
		if ok {
			if err := p.bw.Flush(); err != nil {
				ok = false
			}
		}
		if !ok {
			p.detachLocked()
			lastErr = errors.New("stream: publish resend failed")
			continue
		}
		go p.ackLoop(conn, br, p.gen)
		return nil
	}
	p.err = fmt.Errorf("stream: publisher gave up after %d reconnect attempts: %w", p.opt.retries, lastErr)
	p.cond.Broadcast()
	return p.err
}

// Close flushes the batch under construction, waits for every batch
// to be acknowledged, closes the producer's epoch with a confirmed
// peof, and hangs up. The broker ends the downstream feed once every
// producer in the group has closed.
func (p *Publisher) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return p.err
	}
	if p.err == nil && len(p.cur) > 0 {
		p.flushLocked()
	}
	// The peof must trail every batch on the same connection; a
	// reconnect resends the unacked window first, so the order is
	// preserved across connection loss too.
	sentGen := -1
	for p.err == nil && !p.eofAck {
		if p.conn == nil {
			if err := p.reconnectLocked(); err != nil {
				break
			}
		}
		if p.gen != sentGen {
			if writeControl(p.bw, frame{T: framePEOF}) != nil || p.bw.Flush() != nil {
				p.detachLocked()
				continue
			}
			sentGen = p.gen
		}
		p.cond.Wait()
	}
	p.closed = true
	p.detachLocked()
	p.gen++ // retire any ack reader
	if p.err != nil {
		return p.err
	}
	return nil
}

// Abort severs the connection without closing the epoch — the
// transport-level equivalent of kill -9, used by tests and emergency
// shutdown paths. The broker keeps the producer's registration; a
// successor process (fresh epoch) resumes via SkipEvents.
func (p *Publisher) Abort() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = ErrPublisherClosed
	}
	p.closed = true
	p.detachLocked()
	p.gen++
	p.cond.Broadcast()
}
