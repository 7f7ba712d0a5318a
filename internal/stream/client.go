package stream

import (
	"bufio"
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/wire"
)

// ErrClosed is returned by RecvBatch when the server ends the
// feed cleanly (eof frame). Any other receive error means the
// connection was lost and the session can be resumed: SubscribeBatch
// does so on its own.
var ErrClosed = errors.New("stream: feed closed")

// ErrGap means the server can no longer replay the requested resume
// sequence — spool retention pruned it, or the spool failed and the
// tail moved past it — and at-least-once delivery cannot be preserved.
// The loss is loud: consumers must rebuild state rather than continue
// silently.
var ErrGap = errors.New("stream: resume window lost")

// ErrRebalanced is returned by a dial the broker refused because a
// live rebalance retired the subscription's partition group shape, and
// the dial would not reach the cutover record: a fresh join, or a
// resume past the barrier. There is nothing left for it to judge. The
// error also wraps a *RebalancedError, which names the cutover.
var ErrRebalanced = errors.New("stream: partition group rebalanced")

// RebalancedError names the cutover behind an ErrRebalanced refusal:
// partition group From was cut over to a group of To at Barrier, the
// sequence of its cutover record.
type RebalancedError struct {
	From, To int
	Barrier  uint64
}

func (e *RebalancedError) Error() string {
	return fmt.Sprintf("group %d was rebalanced to %d at barrier %d", e.From, e.To, e.Barrier)
}

// ErrBadFrame is returned by RecvBatch when the server sends a
// frame this client cannot decode — an event frame that does not parse,
// or a control frame that has no place mid-stream. Like ErrGap it is
// terminal: a resume would only replay the same bytes, so the client
// stops instead of skipping events it could not read.
var ErrBadFrame = errors.New("stream: undecodable frame")

// ErrHeld is returned by a dial the broker refused because another
// connected session owns the partition key: each key has one judge. A
// starting worker waits for the key; a running one whose resume is
// refused this way has been replaced, and ends.
var ErrHeld = errors.New("stream: partition held by another session")

// ErrCutPending is returned by an adopting dial (DialKernel) on a group
// shape a live rebalance is cutting over to, while the old group's
// snapshots have not all reached the barrier. Like a held key, a
// starting worker waits it out.
var ErrCutPending = errors.New("stream: rebalance cut not complete")

// newSessionID returns a fresh random subscriber session id: the one a
// fresh dial presents, and a relay's upstream session.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("stream: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Client subscribes to a Server's event feed. A Client is not safe
// for concurrent use.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	session string

	lastSeq uint64 // last sequence handed to the caller
	acked   uint64 // last sequence acknowledged to the server

	pending     []osn.Event // decoded events not yet handed out
	firstSeq    uint64      // sequence of pending[0] (contiguous batches)
	pendingSeqs []uint64    // per-event sequences, parallel to pending (fbatch frames)
	frameLast   uint64      // cursor the current fbatch advances to once drained
	batchSeqs   []uint64    // sequences of the last RecvBatch (fbatch frames; else nil)
	evbuf       []osn.Event // reusable decode buffer backing pending
	seqbuf      []uint64    // reusable decode buffer backing pendingSeqs
	buf         []byte      // reusable frame buffer

	// end is the subscription's terminal state once reached — ErrClosed
	// at eof, or an error wrapping ErrBadFrame — and every later receive
	// returns it again.
	end error

	manualAck bool // acks driven by Ack() instead of delivery
	hop       int  // the welcome's tree depth of the answering broker
	// The welcome's admission state, which DialKernel hands its kernel:
	// the barrier of the newest committed cutover record into the
	// subscription's group shape (0: none). A record out of the shape at
	// or below that barrier retired an earlier generation of the shape,
	// before a rebalance back into it, so a worker of the shape judges on
	// past it; one above it retires the worker.
	reshaped uint64

	// The snapshots the handshake handed over (DialKernel); seq 0: none.
	adoptedSeq uint64
	adopted    [][]byte
}

// dialConfig collects DialOption settings.
type dialConfig struct {
	part  int
	parts int
}

// DialOption configures Dial, DialFrom and SubscribeBatch.
type DialOption func(*dialConfig)

// WithPartition subscribes to one account partition of the feed: the
// server delivers only the events partition part of parts receives
// (osn.PartitionDelivers — the partition's owned actor slice plus the
// cross-partition support events its detector needs), in fbatch
// frames carrying per-event global sequences. Sequence numbers,
// LastSeq, acks and resume all stay in global feed coordinates; the
// client's cursor also advances past foreign events it never sees.
// parts <= 1 subscribes to the full feed.
func WithPartition(part, parts int) DialOption {
	return func(c *dialConfig) {
		c.part, c.parts = part, parts
		if c.parts <= 1 {
			c.part, c.parts = 0, 0
		}
	}
}

// Dial connects to a stream server as a fresh subscriber: it receives
// every event broadcast after the handshake.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return dial(addr, frame{Session: newSessionID()}, opts)
}

// DialFrom connects as a fresh subscriber that backfills history: the
// feed starts at sequence from (DialFrom(addr, 1) replays the feed
// from its beginning) and flips to live delivery once the backlog is
// drained — served from the server's disk spool, so the feed is a
// replayable log for new consumers, not only resumed ones. It returns
// an error wrapping ErrGap when from is below the spool's retention
// floor (or the server's spool failed and its tail moved past from).
func DialFrom(addr string, from uint64, opts ...DialOption) (*Client, error) {
	if from == 0 {
		return nil, errors.New("stream: DialFrom needs a sequence ≥ 1 (use Dial to start at the live head)")
	}
	return dial(addr, frame{Session: newSessionID(), Resume: from}, opts)
}

// DialKernel dials the hello k chose: a resume of its session once
// admitted, else a fresh session that, with Handoff, adopts its
// partition key's state. When the broker holds a snapshot for the key
// (the whole feed's key is 0/1), the handshake hands it over (Adopted)
// and the feed resumes right after it. On a group shape a live
// rebalance is cutting over to, a key with nothing at or past the
// barrier is handed the old group's snapshots at the barrier instead,
// for the caller to re-key; until all of them are there the dial is
// refused with an error wrapping ErrCutPending. A held snapshot the
// feed can no longer resume is refused with an error wrapping ErrGap.
// The snapshot and the key's ownership are one decision of the
// broker's, so the state adopted is exactly the one it held when it
// admitted this session. A broker whose welcome does not echo adopt
// predates this handshake; the dial fails rather than start cold past
// its snapshot. Admitted, k takes the welcome and sets c's acks
// (SetManualAck); refused, Kernel.Refused reads the error.
func DialKernel(addr string, k *Kernel) (*Client, error) {
	hello := k.hello()
	hello.Session = cmp.Or(hello.Session, newSessionID())
	c, err := dial(addr, hello, []DialOption{WithPartition(k.Part, k.Parts)})
	if err == nil {
		k.admitted(c.session, c.lastSeq+1, c.reshaped, c.adoptedSeq, len(c.adopted), time.Now())
		c.manualAck = k.manual()
	}
	return c, err
}

func dial(addr string, hello frame, opts []DialOption) (*Client, error) {
	var cfg dialConfig
	for _, fn := range opts {
		fn(&cfg)
	}
	if cfg.parts > 0 && (cfg.part < 0 || cfg.part >= cfg.parts) {
		return nil, fmt.Errorf("stream: invalid partition %d/%d", cfg.part, cfg.parts)
	}
	conn, err := dialBroker(addr)
	if err != nil {
		return nil, err
	}
	hello.T, hello.V, hello.Part, hello.Parts = frameHello, ProtocolVersion, cfg.part, cfg.parts
	return subscribe(conn, hello)
}

// subscribe opens a subscription on a dialed broker connection: it
// sends hello, reads the welcome — and, for an adopting hello, the
// snapshots behind it — and anchors the cursor at the welcome's first
// sequence. A refusal's class alone decides the error (rejected), and a
// worker's kernel what it means (Kernel.Refused). A refusal with no
// class is an ordinary dial error. A welcome that does not echo adopt
// comes from a broker that predates adoption in the handshake and is
// refused, rather than started cold. conn is closed on error; a caller that dials
// separately can register conn first, so that its own Close cuts a
// handshake the broker never answers.
func subscribe(conn net.Conn, hello frame) (*Client, error) {
	welcome, br, err := handshake(conn, hello, nil, frameWelcome)
	if err == nil && hello.Adopt && !welcome.Adopt {
		err = errors.New("stream: hello: the broker ignored adopt (it predates adoption in the handshake)")
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		conn:     conn,
		br:       br,
		bw:       bufio.NewWriterSize(conn, 4<<10),
		session:  hello.Session,
		hop:      welcome.Hop,
		reshaped: welcome.Barrier,
	}
	if hello.Adopt && welcome.Snaps > 0 {
		conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		left := welcome.Size
		for i := 0; i < welcome.Snaps && err == nil; i++ {
			var data []byte
			if data, err = wire.ReadFrameLimit(br, nil, min(left, wire.MaxSnapshotSize)); err == nil {
				c.adopted = append(c.adopted, data)
				left -= uint64(len(data))
			}
		}
		if err == nil && left != 0 {
			err = fmt.Errorf("payloads are %d bytes short of the announced %d", left, welcome.Size)
		}
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("stream: hello: adopted snapshot: %w", err)
		}
		conn.SetReadDeadline(time.Time{})
		c.adoptedSeq = welcome.Seq
	}
	if from := cmp.Or(welcome.From, hello.Resume); from > 0 {
		// Anchor the cursor: the feed starts at the server's global
		// sequence, not at 1.
		c.lastSeq = from - 1
		c.acked = c.lastSeq
	}
	return c, nil
}

// Session returns the subscriber's session id, needed to resume.
func (c *Client) Session() string { return c.session }

// LastSeq returns the sequence number of the last event handed to the
// caller; resume from LastSeq()+1.
func (c *Client) LastSeq() uint64 { return c.lastSeq }

// Adopted hands over the snapshots an adopting handshake carried: the
// sequence the broker held them at (the cursor starts right after it)
// and their payloads — one, the key's own snapshot, or, on a shape a
// live rebalance is cutting over to, the old K-way group's K at the
// barrier in partition order — or 0 and nil when the broker held none.
// The client keeps no reference, so a later call returns 0 and nil.
func (c *Client) Adopted() (seq uint64, data [][]byte) {
	seq, data = c.adoptedSeq, c.adopted
	c.adoptedSeq, c.adopted = 0, nil
	return seq, data
}

// SetManualAck switches acknowledgement control to the caller. By
// default the client acks whatever it has delivered — right for
// stateless consumers. In manual mode the client never acks on its
// own; a stateful consumer calls Ack with the sequence of its newest
// durable snapshot, so the server retains exactly the events a crash
// would need replayed. So RecvBatch also returns a bare cursor advance,
// as an empty batch: only the caller can ack the range it covers, which
// moves the spool's retention.
func (c *Client) SetManualAck(on bool) { c.manualAck = on }

// Ack acknowledges delivery through seq (clamped to what has actually
// been delivered), flushing the frame immediately. Only useful in
// manual-ack mode — automatic acking supersedes it otherwise. A write
// error is advisory: the dead connection also surfaces on the next
// read, which is where resume handling lives.
func (c *Client) Ack(seq uint64) error {
	if seq > c.lastSeq {
		seq = c.lastSeq
	}
	if seq <= c.acked {
		return nil
	}
	if err := writeControl(c.bw, frame{T: frameAck, Ack: seq}); err != nil {
		return err
	}
	c.acked = seq
	return c.bw.Flush()
}

// flushAcks acknowledges everything delivered so far. It runs
// whenever the client is about to block for more data and on Close,
// which bounds the unacknowledged backlog by one wire batch. Write
// errors are ignored: a dead connection surfaces on the next read.
func (c *Client) flushAcks() {
	if c.manualAck {
		return
	}
	if c.lastSeq > c.acked {
		if writeControl(c.bw, frame{T: frameAck, Ack: c.lastSeq}) == nil {
			c.bw.Flush()
		}
		c.acked = c.lastSeq
	}
}

// next blocks for the next event frame and returns its payload, read
// into buf (nil for a fresh buffer the caller may keep). It acks
// before every wait, a bare cursor advance included — the spool's
// retention moves on only with acks — and a control frame ends the
// subscription (control).
func (c *Client) next(buf []byte) ([]byte, error) {
	if c.end != nil {
		return nil, c.end
	}
	c.flushAcks()
	payload, err := readFrame(c.br, buf)
	if err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	if wire.IsControl(payload) {
		return nil, c.control(payload)
	}
	return payload, nil
}

// fill blocks for the next non-empty batch, deduplicating any events
// the client already delivered (a resumed server may resend its
// in-flight window). Filtered batches (fbatch, partitioned
// subscriptions) carry per-event sequences; their empty form is a
// pure cursor advance past foreign events. It moves the cursor, and
// in manual-ack mode fill returns on it with nothing pending.
func (c *Client) fill() error {
	for {
		payload, err := c.next(c.buf)
		if err != nil {
			return err
		}
		c.buf = payload
		if seq, evs, ok := wire.ParseBatch(payload, c.evbuf[:0]); ok {
			c.evbuf = evs[:0]
			if len(evs) == 0 || seq+uint64(len(evs))-1 <= c.lastSeq {
				continue // empty, or whole batch already delivered
			}
			if seq <= c.lastSeq {
				evs = evs[c.lastSeq+1-seq:]
				seq = c.lastSeq + 1
			}
			if seq != c.lastSeq+1 {
				return fmt.Errorf("stream: sequence gap: expected %d, got batch at %d", c.lastSeq+1, seq)
			}
			c.pending = evs
			c.pendingSeqs = nil
			c.firstSeq = seq
			return nil
		}
		last, evs, seqs, ok := wire.ParseFBatch(payload, c.evbuf[:0], c.seqbuf[:0])
		if !ok || len(seqs) > 0 && last < seqs[len(seqs)-1] {
			c.end = fmt.Errorf("%w: %d-byte event frame is neither a batch nor an fbatch with its cursor past its events", ErrBadFrame, len(payload))
			return c.end
		}
		c.evbuf, c.seqbuf = evs[:0], seqs[:0]
		// Drop any resent prefix the client already delivered.
		drop := 0
		for drop < len(evs) && seqs[drop] <= c.lastSeq {
			drop++
		}
		evs, seqs = evs[drop:], seqs[drop:]
		if len(evs) == 0 {
			// Pure cursor advance (or a fully stale resend): the
			// filtered-out events will never arrive, so the cursor moves
			// without a delivery.
			if last > c.lastSeq {
				c.lastSeq = last
				if c.manualAck {
					return nil
				}
			}
			continue
		}
		c.pending = evs
		c.pendingSeqs = seqs
		c.frameLast = last
		return nil
	}
}

// control handles a control frame mid-stream, which ends the
// subscription: eof, or anything else as a frame that has no place
// here.
func (c *Client) control(payload []byte) error {
	var f frame
	if json.Unmarshal(payload, &f) == nil && f.T == frameEOF {
		c.end = ErrClosed
	} else {
		c.end = fmt.Errorf("%w: unexpected control frame %q mid-stream", ErrBadFrame, payload)
	}
	return c.end
}

// RecvBatch blocks for the next batch of events, handing over whole
// wire batches so consumers can amortize their own per-event costs
// (e.g. feeding detector.Pipeline.Ingest). The returned slice is only
// valid until the next RecvBatch call. In manual-ack mode a batch may
// be empty: a cursor advance past events the subscription filters
// out, with LastSeq moved to it.
func (c *Client) RecvBatch() ([]osn.Event, error) {
	if len(c.pending) == 0 {
		if err := c.fill(); err != nil {
			return nil, err
		}
		if len(c.pending) == 0 {
			c.batchSeqs = nil
			return nil, nil
		}
	}
	evs := c.pending
	c.pending = nil
	if c.pendingSeqs != nil {
		c.batchSeqs = c.pendingSeqs
		c.pendingSeqs = nil
		c.lastSeq = c.frameLast
		return evs, nil
	}
	c.batchSeqs = nil
	c.lastSeq = c.firstSeq + uint64(len(evs)) - 1
	return evs, nil
}

// LastBatchSeqs returns the global sequences of the events the last
// RecvBatch returned, parallel to that slice — or nil when the batch
// was contiguous (sequences then run from LastSeq()−len+1 through
// LastSeq()). Partitioned subscriptions need this: their slice of the
// feed is sparse, so consumers that trim replayed prefixes by
// sequence arithmetic must use per-event sequences instead. Valid
// until the next RecvBatch call.
func (c *Client) LastBatchSeqs() []uint64 { return c.batchSeqs }

// Close acknowledges everything delivered (unless in manual-ack mode)
// and disconnects. The session remains resumable on the server until
// its linger expires.
func (c *Client) Close() error {
	c.flushAcks()
	return c.conn.Close()
}

// Kick severs the connection without touching any client buffers,
// unblocking a RecvBatch pending in another goroutine (it
// returns a connection-loss error, so the session stays resumable).
// Safe to call concurrently with the owning goroutine's calls.
func (c *Client) Kick() { c.conn.Close() }

// Interrupt makes a pending (or the next) RecvBatch fail with a
// timeout error while leaving the connection itself usable for writes
// — unlike Kick, the interrupted loop can still send a final Ack and
// Close cleanly, which is how a signal handler stops an ingest loop
// that must snapshot-and-acknowledge on the way out. Reads must not
// be retried after an Interrupt (a frame may have been consumed
// partially); resume the session on a fresh connection instead. Safe
// to call concurrently with the owning goroutine's calls.
func (c *Client) Interrupt() { c.conn.SetReadDeadline(time.Now()) }

// SubscribeBatch dials addr and delivers the feed to fn, whole wire
// batches in order (each valid only during the call), until the server
// ends the feed, transparently resuming the session when the connection
// drops mid-stream. Its dials are a Kernel's: its hello, its refusal
// table (Kernel.Refused) and its resume point (Kernel.Lost), on the
// redial loop (Redial) with maxRetries. Sequence numbers make the
// combined stream exactly-once: fn sees every event delivered after the
// first handshake, with no gaps and no duplicates. A partitioned
// subscription whose key another session holds waits for it, as a spare
// worker does. It returns nil on clean end of feed (or when the broker
// closes while it waits), an error wrapping ErrGap if the server can no
// longer serve the resume (events were irrecoverably lost), one
// wrapping ErrHeld if another session took the key over, one wrapping
// ErrBadFrame if the server sent a frame the client cannot decode, or
// the last dial error.
func SubscribeBatch(addr string, fn func([]osn.Event), maxRetries int, opts ...DialOption) error {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	k := &Kernel{Part: cfg.part, Parts: cfg.parts}
	return follow(k, func() (*Client, error) { return DialKernel(addr, k) }, func(c *Client) error {
		evs, err := c.RecvBatch()
		for ; err == nil; evs, err = c.RecvBatch() {
			fn(evs)
		}
		return err
	}, maxRetries, nil)
}

// follow is the subscriber lifecycle SubscribeBatch and a Relay's
// upstream link share: redial k's session (Redial, with k's refusal
// table), drain it until it ends, and on a lost connection note where
// the client's cursor ended (Kernel.Lost) and redial at once. The clean
// end of feed — or the end of one a spare waited on — returns nil. An
// undecodable frame (ErrBadFrame) is terminal, since a resume would
// only replay it; so is whatever Redial returns.
func follow(k *Kernel, dial func() (*Client, error), drain func(*Client) error, retries int, quit <-chan struct{}) error {
	for {
		c, err := Redial(dial, k.Refused, retries, quit)
		if err == nil {
			err = drain(c)
			c.Close()
			k.Lost(c.LastSeq())
			if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrBadFrame) {
				continue // connection lost: resume at once
			}
		}
		if errors.Is(err, ErrClosed) {
			return nil
		}
		return err
	}
}

// The redial schedule: a refusal the caller waits out is redialed every
// redialPoll, and a failed dial is retried after a backoff that starts
// at redialPoll and doubles up to maxBackoff.
const redialPoll, maxBackoff = 50 * time.Millisecond, 2 * time.Second

// Redial is every broker client's one redial loop: it calls dial until
// a dial succeeds, and asks refused, the caller's rule, what each
// failure means. wait (the broker answered, and the caller waits its
// turn) redials after redialPoll and resets the count of failures; a
// non-nil end is returned at once; neither retries after the backoff.
// After retries+1 consecutive failed dials it returns the last error.
// A closed quit cuts any sleep short, returning the last error too.
func Redial[T any](dial func() (T, error), refused func(error) (wait bool, end error), retries int, quit <-chan struct{}) (T, error) {
	backoff := redialPoll
	for fails := 0; ; {
		c, err := dial()
		if err == nil {
			return c, nil
		}
		sleep := redialPoll
		switch wait, end := refused(err); {
		case end != nil:
			return c, end
		case wait:
			fails, backoff = 0, redialPoll
		case fails >= retries:
			return c, err
		default:
			fails++
			sleep, backoff = backoff, min(2*backoff, maxBackoff)
		}
		select {
		case <-time.After(sleep):
		case <-quit:
			return c, err
		}
	}
}
