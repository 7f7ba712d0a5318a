// Package stream carries OSN events over TCP, mirroring how the
// paper's detector consumed Renren's operational log feed in
// production. The protocol (version 3) is lossless: events carry
// global sequence numbers and travel in length-prefixed binary batches
// (internal/wire). The broker is one append-only log: its in-memory
// tail holds the shared frames of the last WithReplayBuffer feed
// events, and each subscriber session is a pair of cursors over it —
// what was sent, what the client acknowledged. A subscriber that falls
// behind a memory-only log applies backpressure to the producer instead
// of losing events. A briefly-disconnected subscriber redials with its
// last delivered sequence and the server replays the gap, so delivery
// is at least once end to end (and exactly once through SubscribeBatch,
// which deduplicates on sequence numbers).
//
// The server is a producer-agnostic broker: events enter either via
// in-process BroadcastBatch calls or from any number of concurrent wire
// producers speaking the publish sub-protocol (phello/pbatch/pack —
// see publish.go and Publisher), all merged by one global sequencer
// into the same totally ordered feed. Producer batches carry
// per-producer sequence numbers so a reconnect's resends deduplicate,
// epochs let a killed-and-restarted deterministic producer resume
// exactly where the broker's log ends, and the downstream eof is
// emitted only after every registered producer has closed its epoch.
//
// With WithSpool the log continues on disk (internal/spool): every
// broadcast batch is also appended to the spool, and a session whose
// next sequence has left the tail — a subscriber that fell behind, one
// resuming after a long outage, one cold-starting from a stale
// checkpoint — reads it from segment files until it reaches the tail
// again. The tail then drops its oldest frames freely, so no
// subscriber holds the producer back, and ErrGap retreats to genuine
// retention loss.
//
// Besides the feed, a broker answers six one-shot control exchanges
// — snapshot offer and fetch, rebalance prepare and commit, partition
// status and claim — that move detector state between workers; each
// rides a short-lived connection of its own (see control.go and
// OfferSnapshot, PrepareRebalance, QueryPartition).
//
// The wire protocol — framing, the handshake, sequence/ack semantics
// and the resume rules — is specified in docs/ARCHITECTURE.md.
package stream

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// Server tunables. The defaults suit production-shaped feeds; those
// with a ServerOption override are the ones tests shrink to force the
// edge cases.
const (
	// DefaultReplayBuffer is the size of the log's in-memory tail in
	// feed events, shared by every subscriber. Without a spool it is
	// also the most a subscriber may leave unacknowledged before it
	// holds the producer back; with one, a subscriber that falls out of
	// the tail reads from disk instead.
	DefaultReplayBuffer = 16384
	// DefaultMaxBatch caps events per batch frame.
	DefaultMaxBatch = 256
	// DefaultFlushEvery bounds how long a coalescing writer sits on
	// buffered bytes under sustained load.
	DefaultFlushEvery = 2 * time.Millisecond
	// DefaultSessionLinger is how long a disconnected session's cursors
	// are kept for resume before it is evicted.
	DefaultSessionLinger = 30 * time.Second
	// DefaultStallTimeout is how long BroadcastBatch waits, with the
	// tail full, on one connected subscriber that has not acknowledged
	// its oldest frame before evicting it (liveness backstop: a
	// dead-but-connected client cannot wedge the feed forever). Not
	// reached when a spool is configured — the tail then never waits.
	DefaultStallTimeout = 30 * time.Second
	// DefaultDrainTimeout bounds Close: per-connection deadline for
	// flushing the remaining feed and the eof frame.
	DefaultDrainTimeout = 5 * time.Second

	handshakeTimeout = 10 * time.Second
)

type serverOptions struct {
	replay   int
	maxBatch int
	linger   time.Duration
	stall    time.Duration
	spool    *spool.Spool
	adopting bool
}

// withAdopting marks the server as a sequence-adopting relay hop:
// its sequencer is seated by the upstream feed (AdoptFrame), so wire
// producers are rejected — adoption and local sequencing don't mix.
func withAdopting() ServerOption {
	return func(o *serverOptions) { o.adopting = true }
}

// ServerOption configures NewServer.
type ServerOption func(*serverOptions)

// WithReplayBuffer sets the size of the log's in-memory tail in feed
// events: server-wide, shared by every subscriber, and counted in feed
// events for partitioned subscribers too.
func WithReplayBuffer(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.replay = n
		}
	}
}

// withMaxBatch sets the maximum events per batch frame.
func withMaxBatch(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.maxBatch = n
		}
	}
}

// withSessionLinger sets how long a disconnected session may await
// resume before eviction.
func withSessionLinger(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d > 0 {
			o.linger = d
		}
	}
}

// withStallTimeout sets how long BroadcastBatch waits, with the tail
// full, on one connected subscriber that has not acknowledged the
// tail's oldest frame before evicting it (spool-less servers only).
func withStallTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d > 0 {
			o.stall = d
		}
	}
}

// WithSpool continues the log on disk: every broadcast is appended to
// the spool, and a session whose next sequence has left the in-memory
// tail — a slow subscriber, or a resume reaching further back — reads
// it from the spool's segments, so the tail drops its oldest frames
// freely and never applies backpressure or evicts. The server adopts
// the spool's last sequence as its own starting sequence, so a
// restarted producer reusing a spool directory keeps the log gapless.
// Retention pruning runs on segment roll, pinned to the minimum
// acknowledged sequence across sessions.
func WithSpool(sp *spool.Spool) ServerOption {
	return func(o *serverOptions) { o.spool = sp }
}

// Server broadcasts events to TCP subscribers with at-least-once
// delivery. Events enter the feed two ways, freely mixed: in-process
// BroadcastBatch calls, and wire producers speaking the publish
// sub-protocol (see publish.go) — both run through the same global
// sequencer, so the downstream feed is one totally ordered sequence
// space regardless of how many producers feed it. BroadcastBatch and
// Close must not overlap (wire producers need no such care: a closing
// sequencer refuses their batches); BroadcastBatch itself is safe for
// concurrent use.
type Server struct {
	ln  net.Listener
	opt serverOptions

	// mu is the sequencer lock: it covers only sequence assignment (the
	// phase-1 critical section of the batch fan-out), the closing flag,
	// the producer registry and the control plane. Encoding, the spool
	// append, and the append to the tail all happen after it is
	// released, ordered by the fan-out ticket, so concurrent producers
	// overlap everything but the sequence assignment itself. Lock order:
	// mu → tail.mu.
	mu      sync.Mutex
	seq     uint64 // last sequence number assigned
	closing bool

	// Wire-producer ingest (publish sub-protocol; see publish.go),
	// guarded by mu.
	producers       map[string]*producerState
	expectProducers int // producer group size, fixed by the first phello
	eofed           int // producers that closed their epoch
	ingestDone      chan struct{}

	// tail is the in-memory end of the log, the session registry and
	// the fan-out ticket.
	tail tail

	// encPool holds encode scratch (*[]byte) for BroadcastBatch, whose
	// encode runs before the ticket on whatever goroutines call it — a
	// pool instead of a lock keeps concurrent callers concurrent. Wire
	// producers don't use it: each connection owns its scratch.
	encPool sync.Pool

	encodes   atomic.Uint64 // canonical batch/fbatch frames built (observability)
	delivered atomic.Uint64
	evicted   atomic.Uint64

	// Relay tier: adopted counts events ingested in sequence-adopting
	// mode (AdoptFrame — upstream frames re-served without an encode);
	// hop is this broker's depth in a relay tree (0 = root), learned
	// from the upstream welcome by the owning Relay and echoed in every
	// welcome this server sends.
	adopted atomic.Uint64
	hop     atomic.Int32

	// ctl is the control plane (control.go), guarded by mu.
	ctl control

	// spoolErr holds the first spool append error; once it is set the
	// disk tier is offline for good.
	spoolErr atomic.Pointer[error]

	wg sync.WaitGroup
}

// tail is the in-memory end of the feed log: the shared chunks of the
// last WithReplayBuffer feed events in feed order — contiguous, so it
// holds exactly [first(), head] — together with every session's
// cursors and the fan-out ticket. One mutex guards it all. Fan-out
// appends once per batch and wakes every writer with one Broadcast on
// more; a writer reads its next sequence here while the tail holds it.
type tail struct {
	mu     sync.Mutex
	more   *sync.Cond // writers: the log grew, a fence or close arrived, or a connection changed
	room   *sync.Cond // the fan-out: an ack, detach or eviction may let the oldest chunk go
	ticket *sync.Cond // batches waiting for their turn to append

	buf  []*chunk // buf[lo:] is the tail
	lo   int
	head uint64 // last sequence appended: what writers may read
	// next is the fan-out ticket, the first sequence of the batch whose
	// turn it is: batches acquire sequence ranges under the sequencer
	// lock, then hit the spool and the tail strictly in sequence order.
	// Close waits for next == seq+1 before draining.
	next    uint64
	closing bool // Close is draining: writers end with eof once caught up
	// full is set while a fan-out waits for the oldest chunk to be
	// acknowledged: partitioned writers then move their clients'
	// cursors to the head at once, so acks can pass foreign runs.
	full bool

	sessions map[string]*session
}

// first returns the oldest sequence the tail holds, head+1 when it is
// empty.
func (t *tail) first() uint64 {
	if t.lo < len(t.buf) {
		return t.buf[t.lo].first
	}
	return t.head + 1
}

// after returns the tail's chunks that end past seq.
func (t *tail) after(seq uint64) []*chunk {
	cs := t.buf[t.lo:]
	return cs[sort.Search(len(cs), func(i int) bool { return cs[i].last > seq }):]
}

// push appends c, compacting the buffer in place once half of it is
// dropped space, so a warm tail appends without allocating.
func (t *tail) push(c *chunk) {
	if len(t.buf) == cap(t.buf) && t.lo >= len(t.buf)/2 {
		n := copy(t.buf, t.buf[t.lo:])
		clear(t.buf[n:])
		t.buf, t.lo = t.buf[:n], 0
	}
	t.buf = append(t.buf, c)
	t.head = c.last
}

// chunk is one immutable pre-encoded slice of the feed: up to maxBatch
// events encoded exactly once into a canonical frame payload, then
// shared by reference — the spool appends the same bytes every
// subscriber socket writes. A tail chunk's payload is a batch frame and
// first..last a contiguous run. A writer's job chunk may instead be a
// partition's fbatch view of a frame, spliced on the writer's scratch:
// first/last are then the first/last sequences the partition owns
// inside the source frame, n counts only those, and cursor — the source
// frame's end — is the feed position the view advances the subscriber
// to.
type chunk struct {
	first   uint64
	last    uint64
	n       int
	cursor  uint64
	payload []byte
}

// retain returns the exactly-sized copy of an encoded payload that a
// chunk keeps (spliced payloads are built at their size and need no
// copy). Encoders run on reusable scratch, whose capacity is
// whatever the largest frame so far needed; the retained copy is
// immutable and garbage-collected, never recycled — session writers
// copy chunks out of the tail under its lock and write the payloads to
// their sockets outside it, so a reused payload could be overwritten
// in the middle of a write.
func retain(scratch []byte) []byte { return bytes.Clone(scratch) }

// partKey identifies one partition, part of parts: a control-plane
// key.
type partKey struct{ part, parts int }

// session is one subscriber: its cursors over the log and its
// (possibly nil, while detached) current connection. Everything but
// the immutable fields is guarded by tail.mu.
//
// A session has no queue of its own. Its one writer reads sent+1 from
// the tail while the tail holds it and from a spool reader while it
// does not. A partitioned session (parts > 0) is sent its partition's
// views of the chunks, which its writer splices, so acks, spool
// retention and resume all keep working in global feed coordinates
// while only the partition's slice crosses the wire.
type session struct {
	id string

	// Partitioned subscription (immutable after creation); parts == 0
	// means the full feed.
	part  int
	parts int

	// relay marks a subscriber that identified itself as an interior
	// relay hop (hello "relay":true) — audit only, delivery is
	// identical. Sticky across resumes.
	relay bool

	// acked ≤ sent: the client acknowledged the feed through acked, and
	// the writer has framed it through sent. A resume at r resets both
	// to r-1.
	acked uint64
	sent  uint64

	// Rebalance fence (sticky once set): this session receives nothing
	// past fencedAt; once everything at or below it is framed, the
	// writer emits a rebal announcement naming fenceNew and ends the
	// subscription. Set either by the prepare walking the sessions or by
	// admit for sessions (re)joining a fenced group.
	fencedAt uint64
	fenceNew int

	conn       net.Conn // nil while detached
	gen        int      // connection generation; stale writers exit on mismatch
	detachedAt time.Time
	gone       bool // evicted: removed from the registry
}

// owes reports whether the session still needs chunk c: it has not
// acknowledged all of it, and c is not wholly past its fence barrier.
func (sess *session) owes(c *chunk) bool {
	return sess.acked < c.last && (sess.fencedAt == 0 || c.first <= sess.fencedAt)
}

// ServerStats is a snapshot of feed accounting.
type ServerStats struct {
	Broadcast uint64 // events broadcast (highest sequence assigned)
	// Delivered sums acknowledged feed-cursor progress across
	// subscribers. Partitioned subscribers acknowledge global cursor
	// positions (their acks also cover foreign events they never
	// received), so with K partitions Delivered approaches K× the
	// broadcast count even though each event crossed the wire once.
	Delivered uint64
	Sessions  int    // sessions held (connected or lingering for resume)
	Evicted   uint64 // sessions evicted with unrecoverable undelivered events — the only loss path
	// Encodes counts the canonical batch/fbatch frames the broker built,
	// whether encoded from events or spliced from a checked frame's records
	// — the fan-out hot path's unit of work: one batch frame per
	// maxBatch run of a published batch, built once and shared by every
	// full-feed session regardless of their number. Writers add their
	// own: a suffix spliced for a resume that landed mid-frame, and one
	// fbatch view per (frame, partitioned session) pair in which the
	// session owns an event, from the tail or the spool alike.
	// Frames forwarded verbatim, coalesced by a writer, or pure cursor
	// advances are not counted.
	Encodes uint64
	// Adopted counts events ingested in sequence-adopting mode
	// (AdoptFrame): upstream-sequenced frames re-served as shared bytes
	// with no local encode. On an interior relay hop Broadcast ==
	// Adopted and Encodes stays 0 (barring mid-frame resume suffixes).
	Adopted uint64
	// Hop is this broker's depth in a relay tree: 0 for a root broker
	// (local sequencer), n for a relay n hops below the root.
	Hop int
	// PerSession breaks lag down by subscriber, sorted worst-lagging
	// first, so an operator can see which consumer is holding the feed
	// back before the stall timeout evicts it.
	PerSession []SessionStats
	// PerProducer breaks ingest down by wire producer (publish
	// sub-protocol), sorted by id. Broadcast above remains the global
	// sent count: every producer's events land in the one sequence
	// space, so an audit against Delivered must use it, not any single
	// producer's count.
	PerProducer []ProducerStats
	// Spool accounting, when a disk tier is configured. SpoolFirst is
	// the oldest retained sequence (resumes reach back this far);
	// SpoolErr reports the write failure that took the disk tier
	// offline, if any.
	SpoolFirst uint64
	SpoolEnd   uint64
	SpoolErr   string
	// Snapshots lists the detector snapshots currently held for
	// handoff, sorted by (parts, part).
	Snapshots []SnapshotStats
	// Rebalances is the append-only audit of every rebalance prepared
	// on this broker, in preparation order.
	Rebalances []RebalanceStats
}

// SessionStats is one subscriber session's flow-control view, in feed
// events for partitioned sessions too.
type SessionStats struct {
	ID        string  // client-chosen session id
	Connected bool    // false while lingering for resume
	CatchUp   bool    // the session's next sequence has left the tail: its writer reads the spool
	Relay     bool    // subscriber identified itself as a relay hop
	Part      int     // partition index (meaningful when Parts > 0)
	Parts     int     // partition group size; 0 = full feed
	Acked     uint64  // highest sequence the client has acknowledged
	Behind    uint64  // events behind the feed head (broadcast − acked)
	Buffered  int     // feed events in the tail above Acked
	Window    int     // the tail's size (WithReplayBuffer)
	Fill      float64 // Buffered/Window; at 1.0 this session stalls a spool-less BroadcastBatch
}

// RebalanceStats describes one rebalance the broker coordinated:
// the old group shape, the new one, the sequence barrier the cutover
// fenced at, and whether the coordinator committed it.
type RebalanceStats struct {
	From      int    // old partition group size
	To        int    // new partition group size
	Barrier   uint64 // common cut sequence: old owners end at it, new owners start after it
	Committed bool
}

// SnapshotStats describes one held snapshot in the broker's
// rendezvous store.
type SnapshotStats struct {
	Part  int    // partition the snapshot covers
	Parts int    // partition group size
	Seq   uint64 // feed sequence the snapshot is stamped at
	Bytes int    // serialized payload size
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and starts accepting
// subscribers.
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	o := serverOptions{
		replay:   DefaultReplayBuffer,
		maxBatch: DefaultMaxBatch,
		linger:   DefaultSessionLinger,
		stall:    DefaultStallTimeout,
	}
	for _, fn := range opts {
		fn(&o)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen: %w", err)
	}
	s := &Server{
		ln:        ln,
		opt:       o,
		producers: make(map[string]*producerState),
		ctl: control{
			fences: make(map[int]*fence),
			claims: make(map[partKey]claim),
			seen:   make(map[partKey]bool),
			snaps:  make(map[partKey]snapshot),
		},
		ingestDone: make(chan struct{}),
		encPool:    sync.Pool{New: func() any { return new([]byte) }},
	}
	if o.spool != nil {
		// Adopt the spooled log's position: a restarted producer
		// continues the sequence space instead of reusing numbers the
		// spool already assigned to different events.
		s.seq = o.spool.End()
	}
	t := &s.tail
	t.more, t.room, t.ticket = sync.NewCond(&t.mu), sync.NewCond(&t.mu), sync.NewCond(&t.mu)
	t.head, t.next = s.seq, s.seq+1
	t.sessions = make(map[string]*session)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HeadSeq returns the highest global sequence assigned on this feed —
// a relay resumes its upstream subscription from HeadSeq()+1, which
// after a restart is the spool's adopted end.
func (s *Server) HeadSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// spoolUsable reports whether the disk tier can serve and accept
// data.
func (s *Server) spoolUsable() bool {
	return s.opt.spool != nil && s.spoolErr.Load() == nil
}

// BroadcastBatch assigns the events one contiguous run of sequence
// numbers and fans the batch out: the canonical frame is encoded
// exactly once per maxBatch chunk under no lock, appended to the
// spool (when configured) and to the tail, where every subscriber
// reads the same bytes — N subscribers cost one append, not N
// re-encodes. Without a spool it blocks — up to the stall timeout per
// subscriber — while the tail is full and a connected subscriber has
// not acknowledged its oldest chunk, so a slow consumer slows the feed
// down instead of losing events; with a spool the tail drops the chunk
// and the slow subscriber reads it from disk. Safe for concurrent use
// (concurrent batches interleave at sequencing, never within a batch);
// must not overlap Close.
func (s *Server) BroadcastBatch(evs []osn.Event) {
	if len(evs) == 0 {
		return
	}
	s.mu.Lock()
	first := s.seq + 1
	s.seq += uint64(len(evs))
	s.mu.Unlock()
	scratch := s.encPool.Get().(*[]byte)
	chunks := s.encodeChunks(first, evs, scratch)
	s.encPool.Put(scratch)
	s.fanout(first, len(evs), chunks)
}

// encodeChunks builds a batch's shared frames by encoding: one
// immutable canonical payload per maxBatch run, encoded on the caller's
// scratch and retained at its exact size. No lock is held — with
// multiple producers the encodes themselves run concurrently, each on
// its own scratch; only delivery is ordered (by the fan-out ticket).
func (s *Server) encodeChunks(first uint64, evs []osn.Event, scratch *[]byte) []*chunk {
	return s.buildChunks(first, len(evs), func(off, end int, seq uint64) []byte {
		*scratch = wire.AppendBatch((*scratch)[:0], seq, evs[off:end])
		return retain(*scratch)
	})
}

// spliceChunks builds the shared frames of a pbatch of n events
// without an encoder: each maxBatch run of the producer's own records
// (src, checked by wire.ParsePBatchBounds) goes under a batch header in
// one copy sized for it — the bytes encodeChunks would produce for the
// same events.
func (s *Server) spliceChunks(first uint64, src []byte, n int) []*chunk {
	return s.buildChunks(first, n, func(off, end int, seq uint64) []byte {
		return wire.SpliceBatch(nil, seq, src, off, end)
	})
}

// buildChunks cuts a batch of n events sequenced from first into
// maxBatch runs and wraps each run's frame payload, frame(off, end,
// seq) for events [off, end) from sequence seq, in a chunk. Each frame
// built counts as one of ServerStats.Encodes.
func (s *Server) buildChunks(first uint64, n int, frame func(off, end int, seq uint64) []byte) []*chunk {
	k := (n + s.opt.maxBatch - 1) / s.opt.maxBatch
	chunks := make([]*chunk, 0, k)
	slab := make([]chunk, 0, k) // one allocation for all chunk headers
	for off := 0; off < n; off += s.opt.maxBatch {
		end := min(off+s.opt.maxBatch, n)
		cf, cl := first+uint64(off), first+uint64(end)-1
		slab = append(slab, chunk{first: cf, last: cl, n: end - off, cursor: cl, payload: frame(off, end, cf)})
		chunks = append(chunks, &slab[len(slab)-1])
		s.encodes.Add(1)
	}
	return chunks
}

// ErrAdoptGap is returned by AdoptFrame when a frame starts past the
// local head + 1: sequence adoption preserves the upstream's numbering
// verbatim, so a gap can only mean frames were lost between hops — the
// relay must reconnect and resume rather than paper over it.
var ErrAdoptGap = errors.New("stream: adopted frame out of sequence")

// AdoptFrame ingests one batch frame in sequence-adopting mode: the
// frame keeps the global sequences its upstream broker assigned instead
// of passing through the local sequencer, and its payload becomes the
// shared chunk that the spool and the tail reference. An interior relay
// hop therefore costs zero encodes (the Encodes counter does not move)
// and zero event-level copies. The payload is retained by reference —
// the caller must hand over ownership and never reuse its backing
// array. It returns the frame's event count.
//
// Every record is checked before anything is sequenced: a frame that
// does not decode is refused with an error wrapping ErrBadFrame and
// leaves the head untouched. Frames must arrive in feed order. A frame
// entirely at or below the head is a reconnect resend and is dropped
// whole (nil error); one straddling the head — a resume that landed
// mid-frame upstream — has its suffix spliced into a new frame locally,
// the single counted frame the adoption path builds; one starting past
// head+1 returns ErrAdoptGap with the head untouched. Safe for
// concurrent use with subscriber traffic, but a server has exactly one
// adopter (its relay's upstream loop) and adoption must not be mixed
// with BroadcastBatch or publish ingest: both assign local sequences,
// which is precisely what adoption forgoes.
func (s *Server) AdoptFrame(payload []byte) (n int, err error) {
	first, n, ok := wire.ParseBatchBounds(payload)
	if !ok {
		return 0, fmt.Errorf("%w: adopt: %d-byte payload is not a batch frame", ErrBadFrame, len(payload))
	}
	if n == 0 {
		return 0, nil
	}
	last := first + uint64(n) - 1
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return n, errors.New("stream: adopt: server closing")
	}
	head := s.seq
	s.mu.Unlock()
	adopt := n
	switch {
	case last <= head:
		return n, nil // stale resend: everything here is already adopted
	case first > head+1:
		return n, fmt.Errorf("%w: head %d, frame starts at %d", ErrAdoptGap, head, first)
	case first <= head:
		// Straddling resend: splice the surviving suffix. This is the one
		// frame adoption builds, at most once per upstream reconnect.
		payload, _ = wire.SuffixBatch(nil, payload, head+1)
		s.encodes.Add(1)
		first = head + 1
		adopt = int(last - head)
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return n, errors.New("stream: adopt: server closing")
	}
	if s.seq != first-1 {
		// The head moved between the check and the claim: a second
		// adopter or an interleaved BroadcastBatch — both contract
		// violations. Refuse loudly instead of corrupting the order.
		cur := s.seq
		s.mu.Unlock()
		return n, fmt.Errorf("stream: adopt: concurrent sequencing (head moved %d → %d)", head, cur)
	}
	s.seq = last
	s.mu.Unlock()
	s.adopted.Add(uint64(adopt))

	c := &chunk{first: first, last: last, n: adopt, cursor: last, payload: payload}
	s.fanout(first, adopt, []*chunk{c})
	return n, nil
}

// fanout delivers one sequenced batch: spool append (the same shared
// bytes), then one append to the tail, published to every writer with
// one Broadcast. Batches pass through strictly in sequence order — each
// waits for its ticket — which is what keeps the spool and the tail
// contiguous while concurrent producers build frames in parallel. n is
// the batch's event count. Fan-out never looks inside a frame: the
// tail holds only the shared batch bytes, and partition views are
// their writers' work.
func (s *Server) fanout(first uint64, n int, chunks []*chunk) {
	t := &s.tail
	t.mu.Lock()
	for t.next != first {
		t.ticket.Wait()
	}
	t.mu.Unlock()

	if s.spoolUsable() {
		for _, c := range chunks {
			rolled, err := s.opt.spool.AppendFrame(c.first, c.n, c.payload)
			if err != nil {
				// The disk tier is gone, loudly; the tail keeps the feed
				// alive with spool-less semantics from here on.
				s.spoolErr.CompareAndSwap(nil, &err)
				log.Printf("stream: spool append failed, disk replay tier offline: %v", err)
				break
			}
			if rolled {
				s.pruneSpool(c.last)
			}
		}
	}

	t.mu.Lock()
	for _, sess := range t.sessions {
		// The linger clock runs here: silence and disk catch-up do not
		// extend a detached session's lifetime (a spool keeps its data
		// for a recreated session).
		if sess.conn == nil && time.Since(sess.detachedAt) > s.opt.linger {
			s.evictLocked(sess)
		}
	}
	s.dropLocked(n)
	for _, c := range chunks {
		t.push(c)
	}
	t.more.Broadcast()
	t.next = first + uint64(n)
	t.ticket.Broadcast()
	t.mu.Unlock()
}

// pruneSpool runs retention after a segment roll, pinned to the lowest
// acknowledged sequence across sessions. Holding tail.mu across the
// scan and the prune closes the race with a resume served from the
// spool: admit checks retention and registers the session under the
// same lock, so pruning can never pass a just-admitted reader.
func (s *Server) pruneSpool(head uint64) {
	t := &s.tail
	t.mu.Lock()
	defer t.mu.Unlock()
	floor := head
	for _, sess := range t.sessions {
		floor = min(floor, sess.acked)
	}
	s.opt.spool.Prune(floor)
}

// dropLocked makes room for a batch of n events: it drops chunks from
// the front of the tail until the batch fits in WithReplayBuffer
// events, or the tail is empty (a batch larger than the tail is still
// accepted). It is the one place backpressure lives, and it runs
// before the batch is published, so a producer only ever waits on
// frames its subscribers already have. With a usable spool every
// chunk is on disk and goes freely. Without one, a chunk a session
// still owes stays: a detached session owing it is evicted (the loss
// counted), and a connected one holds the producer — whose fan-out
// holds the ticket — until it acknowledges the chunk, or until the
// stall timeout passes with nothing dropped, when it is evicted too.
// Caller holds tail.mu.
func (s *Server) dropLocked(n int) {
	t := &s.tail
	var deadline time.Time
	var wake *time.Timer
	for len(t.buf) > t.lo && t.head+1-t.first()+uint64(n) > uint64(s.opt.replay) {
		pin := s.pinLocked(t.buf[t.lo])
		switch {
		case pin == nil:
			t.buf[t.lo] = nil
			t.lo++
			deadline = time.Time{}
			continue
		case deadline.IsZero():
			deadline = time.Now().Add(s.opt.stall)
			if wake == nil {
				wake = time.AfterFunc(s.opt.stall, func() {
					t.mu.Lock()
					t.room.Broadcast()
					t.mu.Unlock()
				})
			} else {
				wake.Reset(s.opt.stall)
			}
		case !time.Now().Before(deadline):
			s.evictLocked(pin)
			deadline = time.Time{}
			continue
		}
		if !t.full {
			t.full = true
			t.more.Broadcast()
		}
		t.room.Wait()
	}
	t.full = false
	if wake != nil {
		wake.Stop()
	}
}

// pinLocked returns the connected session that keeps chunk c in a
// spool-less tail — the one furthest behind — evicting every detached
// session that still owes c on the way. It returns nil when c may go.
// Caller holds tail.mu.
func (s *Server) pinLocked(c *chunk) (pin *session) {
	if s.spoolUsable() {
		return nil
	}
	for _, sess := range s.tail.sessions {
		switch {
		case !sess.owes(c):
		case sess.conn == nil:
			s.evictLocked(sess)
		case pin == nil || sess.acked < pin.acked:
			pin = sess
		}
	}
	return pin
}

// evictLocked removes the session permanently (the identity check keeps
// a delayed eviction from deleting a newer session reusing the id).
// Loss is only counted when events the session is owed die with it
// irrecoverably — a usable spool still holds them for a later resume,
// so spooled evictions are not loss. Caller holds tail.mu.
func (s *Server) evictLocked(sess *session) {
	if sess.gone {
		return
	}
	sess.gone = true
	t := &s.tail
	if t.sessions[sess.id] == sess {
		delete(t.sessions, sess.id)
	}
	owed := t.head
	if f := sess.fencedAt; f > 0 {
		owed = min(owed, f)
	}
	if sess.acked < owed && !s.spoolUsable() {
		s.evicted.Add(1)
	}
	if sess.conn != nil {
		sess.conn.Close()
		sess.conn = nil
	}
	sess.gen++
	t.more.Broadcast()
	t.room.Signal()
}

// evict removes the session permanently, taking tail.mu.
func (s *Server) evict(sess *session) {
	s.tail.mu.Lock()
	s.evictLocked(sess)
	s.tail.mu.Unlock()
}

// ackTo processes a client acknowledgement: advance the delivered
// high-water mark and wake a producer waiting for the tail's oldest
// chunk to be acknowledged.
func (s *Server) ackTo(sess *session, seq uint64) {
	t := &s.tail
	t.mu.Lock()
	seq = min(seq, sess.sent) // cannot ack what was never sent
	if seq > sess.acked {
		s.delivered.Add(seq - sess.acked)
		sess.acked = seq
		t.room.Signal()
	}
	t.mu.Unlock()
}

// attachLocked binds conn as the session's current connection, kicking
// any previous one. Caller holds tail.mu. Returns the new generation.
func (s *Server) attachLocked(sess *session, conn net.Conn) int {
	if sess.conn != nil {
		sess.conn.Close()
	}
	sess.gen++
	sess.conn = conn
	s.tail.more.Broadcast() // stop a stale writer
	return sess.gen
}

// detach drops the session's connection (keeping its cursors for
// resume) if gen is still the current generation.
func (s *Server) detach(sess *session, gen int) {
	t := &s.tail
	t.mu.Lock()
	if sess.gen == gen && !sess.gone {
		sess.gen++
		if sess.conn != nil {
			sess.conn.Close()
			sess.conn = nil
		}
		sess.detachedAt = time.Now()
		t.more.Broadcast()
		t.room.Signal() // a producer waiting on this session now evicts it instead
	}
	t.mu.Unlock()
}

// serveConn reads the first frame and dispatches it through the
// first-frame table: a one-shot control request to serveControl, a
// phello to the ingest path, and a hello to admission, after which
// this goroutine runs the connection's ack reader and the batch writer
// runs in its own.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	refuse := func(t, why string) {
		writeControl(conn, frame{T: t, V: ProtocolVersion, Err: why})
		conn.Close()
	}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReaderSize(conn, 32<<10)
	payload, err := readFrame(br, nil)
	if err != nil {
		conn.Close()
		return
	}
	var hello frame
	if err := json.Unmarshal(payload, &hello); err != nil {
		refuse(frameWelcome, "malformed hello")
		return
	}
	// Every refusal from here on carries the tag the client of the
	// exchange waits for; an unknown tag is answered as a subscribe
	// hello would be.
	row := firstFrames[hello.T]
	reply := cmp.Or(row.reply, frameWelcome)
	if hello.V != ProtocolVersion {
		refuse(reply, fmt.Sprintf("unsupported protocol version %d", hello.V))
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch {
	case row.serve != nil:
		s.serveControl(conn, br, hello, row)
		return
	case hello.T == framePHello && s.opt.adopting:
		// A relay hop's sequencer is seated by the upstream feed, so it
		// admits no producers.
		refuse(reply, "broker is a relay hop: publish to the root broker")
		return
	case hello.T == framePHello:
		s.servePublisher(conn, br, hello, payload)
		return
	case hello.T != frameHello || hello.Session == "":
		refuse(reply, "malformed hello")
		return
	}

	sess, gen, from, reject := s.admit(hello, conn)
	if reject != "" {
		refuse(reply, reject)
		return
	}
	if err := writeControl(conn, frame{T: frameWelcome, V: ProtocolVersion, From: from,
		Hop: int(s.hop.Load())}); err != nil {
		s.detach(sess, gen)
		return
	}
	s.wg.Add(1)
	go s.writer(sess, conn, gen)

	// Ack reader: this goroutine owns conn teardown via detach.
	for {
		payload, err := readFrame(br, payload)
		if err != nil {
			s.detach(sess, gen)
			return
		}
		var f frame
		if json.Unmarshal(payload, &f) == nil && f.T == frameAck {
			s.ackTo(sess, f.Ack)
		}
	}
}

// admit registers or resumes the session named in hello and attaches
// conn to it. It returns the session, the connection generation and
// the first sequence the writer will send, or a rejection reason.
//
// There is one resume rule: a resume at r is served iff r lies in
// [tail first, head+1] or the spool holds r. Whether the session is
// still registered only decides which cursors carry over; a fresh
// subscription (no resume) starts at the next sequence assigned.
func (s *Server) admit(hello frame, conn net.Conn) (sess *session, gen int, from uint64, reject string) {
	// Normalize the partition request: a group of one is the full
	// feed, served on the cheaper contiguous path.
	if hello.Parts == 1 {
		hello.Part, hello.Parts = 0, 0
	}
	if hello.Parts < 0 || hello.Part < 0 || (hello.Parts > 0 && hello.Part >= hello.Parts) {
		return nil, 0, 0, "invalid partition"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, 0, 0, "server closing"
	}
	var fencedAt uint64
	var fenceNew int
	if hello.Parts >= 2 {
		key := partKey{part: hello.Part, parts: hello.Parts}
		if f := s.ctl.fences[hello.Parts]; f != nil {
			// The group shape was rebalanced away. A fresh join would
			// double-judge post-barrier events against the new owners;
			// a resume may only drain what it is owed below the
			// barrier, then gets the rebal hand-off like everyone else.
			if hello.Resume == 0 || hello.Resume > f.barrier+1 {
				return nil, 0, 0, fmt.Sprintf("partition group %d rebalanced to %d at barrier %d", f.from, f.nparts, f.barrier)
			}
			fencedAt, fenceNew = f.barrier, f.nparts
		}
		if c, ok := s.ctl.claims[key]; ok {
			switch {
			case hello.Session == c.session:
				delete(s.ctl.claims, key) // claim consumed by its holder
			case time.Since(c.at) < s.opt.linger:
				return nil, 0, 0, "partition claimed by another session"
			default:
				delete(s.ctl.claims, key) // claimant never showed; let go
			}
		}
		s.ctl.seen[key] = true
	}
	t := &s.tail
	t.mu.Lock()
	defer t.mu.Unlock()
	sess = t.sessions[hello.Session]
	r := hello.Resume
	switch {
	case r == 0:
		// Fresh subscription from the next broadcast on. Reusing a live
		// session id replaces (evicts) the old session.
		r = s.seq + 1
		if sess != nil {
			s.evictLocked(sess)
			sess = nil
		}
	case sess != nil && (sess.parts != hello.Parts || sess.part != hello.Part):
		// A session's filter is part of its delivery state: the acks
		// and cursors only make sense for the slice they were earned
		// on. Changing partition means starting a fresh session.
		return nil, 0, 0, "partition mismatch for resumed session"
	case r > s.seq+1:
		return nil, 0, 0, "resume sequence ahead of feed"
	case r < t.first() && !s.spoolServes(r):
		switch {
		case s.spoolUsable():
			return nil, 0, 0, "resume sequence below the spool retention floor"
		case sess != nil:
			return nil, 0, 0, "resume sequence already trimmed"
		}
		return nil, 0, 0, "unknown session (resume window expired)"
	}
	if sess == nil {
		sess = &session{id: hello.Session, part: hello.Part, parts: hello.Parts}
		t.sessions[sess.id] = sess
	} else if r-1 > sess.acked {
		// Resuming from r implicitly acknowledges everything before it.
		s.delivered.Add(r - 1 - sess.acked)
	}
	// Both cursors move to r-1, down as well as up: a client resuming
	// below its own acks pins what it asked for again.
	sess.acked, sess.sent = r-1, r-1
	sess.relay = sess.relay || hello.Relay
	if fencedAt > 0 {
		sess.fencedAt, sess.fenceNew = fencedAt, fenceNew
	}
	return sess, s.attachLocked(sess, conn), r, ""
}

// spoolServes reports whether the disk tier retains sequence r: the
// spool is usable and its oldest segment starts at or below r. Anything
// the spool has not appended yet is still in the tail (fan-out appends
// to the spool first), so the caller checks r against the tail as
// well.
func (s *Server) spoolServes(r uint64) bool {
	if !s.spoolUsable() {
		return false
	}
	first := s.opt.spool.First()
	return first != 0 && first <= r
}

// The session writer. One goroutine per connection frames its session
// onto the socket in rounds, and every round has the same shape:
//
//   - fill: take a job list from whichever source holds sent+1 — the
//     tail, or a spool reader once the tail has moved past it — and
//     settle it under tail.mu: clamp it at the fence barrier and publish
//     how far it moves the client's cursor (sent);
//   - emit: coalesce the jobs up to maxBatch events per frame by byte
//     splicing, splice the suffix of a plain job a resume landed inside,
//     or send a bare cursor advance once advanceEvery silent events have
//     passed;
//   - flush before the writer sleeps, and at least every
//     DefaultFlushEvery while it does not;
//   - end: a drained round at the fence barrier is followed by rebal, a
//     drained tail round on a closing server by eof.
//
// Everything the writer builds lives in its own scratch and goes
// straight to the socket: it is never retained, and once warm the
// writer allocates nothing per frame.

// errStale ends a writer whose connection generation moved on: the
// session was resumed on another connection, detached or evicted.
var errStale = errors.New("stream: stale session writer")

// errLost marks a failure of the source itself — an unserviceable or
// corrupt spool, a corrupt frame — which a resume would only hit
// again: the session is evicted loudly instead of detached.
var errLost = errors.New("session unserviceable")

// eofFrame is the goodbye a subscriber gets once it has drained the
// feed at server close.
var eofFrame = []byte(`{"t":"` + frameEOF + `"}`)

// sessionWriter is one writer goroutine's state.
type sessionWriter struct {
	s    *Server
	sess *session
	gen  int
	bw   *bufio.Writer

	rd        *spool.Reader // the spool source; nil while the tail holds sent+1
	pos       uint64        // last sequence rd has handed out
	seen      uint64        // feed position the tail has been examined through (≥ sent)
	jobs      []chunk       // the round's frames, in feed order (copies: a job may be rewritten)
	own       []int         // one view's events, as positions in its frame
	buf       []byte        // the payloads of disk jobs and partition views
	sfx       []byte        // a spliced suffix job
	parts     [][]byte      // the payloads one coalesced frame joins
	out       []byte        // coalesced and cursor-advance frames
	lastFlush time.Time
}

// round is one fill: the jobs in w.jobs are framed from sequence from
// and move the client's cursor to to; end, when set, is the frame that
// ends the subscription after them.
type round struct {
	from, to uint64
	end      []byte
}

// writer drains the session onto one connection until the connection
// dies, the generation moves on, or the subscription ends. At the end
// it arms a read deadline so the ack reader terminates too.
func (s *Server) writer(sess *session, conn net.Conn, gen int) {
	defer s.wg.Done()
	w := &sessionWriter{s: s, sess: sess, gen: gen,
		bw: bufio.NewWriterSize(conn, 64<<10), lastFlush: time.Now()}
	defer w.closeReader()
	for {
		r, err := w.next()
		if err == nil {
			err = w.emit(r.from, r.to)
		}
		if err == nil && r.end != nil {
			writeFrame(w.bw, r.end)
			w.bw.Flush()
			conn.SetReadDeadline(time.Now().Add(DefaultDrainTimeout))
			return
		}
		if err == nil && time.Since(w.lastFlush) >= DefaultFlushEvery {
			err = w.flush()
		}
		if err != nil {
			// A stale writer ends quietly, a dead connection detaches
			// (the session stays resumable), and an unserviceable source
			// evicts the session loudly.
			if errors.Is(err, errLost) {
				log.Printf("stream: session %s: %v", sess.id, err)
				s.evict(sess)
			} else if !errors.Is(err, errStale) {
				s.detach(sess, gen)
			}
			return
		}
	}
}

// next fills the next round from whichever source holds sent+1. The
// tail source waits — flushing first — until the feed grows past what
// this writer has examined, the fence barrier is reached, the server
// closes, or a full tail needs the client's cursor at the head.
func (w *sessionWriter) next() (round, error) {
	sess, t := w.sess, &w.s.tail
	t.mu.Lock()
	for {
		if sess.gen != w.gen {
			t.mu.Unlock()
			return round{}, errStale
		}
		if from := sess.sent + 1; from < t.first() {
			f := sess.fencedAt
			t.mu.Unlock()
			return w.fromSpool(from, f)
		}
		w.closeReader()
		w.seen = max(w.seen, sess.sent)
		if f := sess.fencedAt; t.head > w.seen || t.closing || (f > 0 && t.head >= f) || (t.full && sess.sent < t.head) {
			if r, ok := w.fromTail(); ok {
				t.mu.Unlock()
				return r, nil
			}
			continue
		}
		if w.bw.Buffered() > 0 {
			t.mu.Unlock()
			err := w.flush()
			t.mu.Lock()
			if err != nil {
				t.mu.Unlock()
				return round{}, err
			}
			continue
		}
		t.more.Wait()
	}
}

// fromTail fills a round from the tail's chunks past what this writer
// has examined: the chunks themselves for a full-feed session; for a
// partitioned one their views, spliced on the writer's own scratch —
// a round stops splicing once its chunks cover maxBatch events, which
// bounds how long it holds tail.mu. ok is false when a
// partitioned session found nothing it owns and fewer than
// advanceEvery events to cover: the round is not worth a frame yet —
// unless the tail is full, when only the client's ack can free it.
// Caller holds tail.mu.
func (w *sessionWriter) fromTail() (r round, ok bool) {
	s, sess, t := w.s, w.sess, &w.s.tail
	w.jobs, w.buf = w.jobs[:0], w.buf[:0]
	cursor, drained, spliced := t.head, true, 0
	for _, c := range t.after(w.seen) {
		if sess.parts == 0 {
			w.jobs = append(w.jobs, *c)
			continue
		}
		if spliced >= s.opt.maxBatch {
			cursor, drained = c.first-1, false
			break
		}
		spliced += c.n
		w.view(c.payload, c.first, c.cursor)
	}
	w.seen = cursor
	f := sess.fencedAt
	if len(w.jobs) == 0 && drained && !t.closing && !t.full && !(f > 0 && cursor >= f) &&
		cursor < sess.sent+s.advanceEvery() {
		return round{}, false
	}
	return w.settle(cursor, drained), true
}

// fromSpool reads the next run of disk frames from sent+1 (from): up to
// maxBatch events, stopping early at the spool's end or the fence
// barrier f. There is no ack-driven flow control here — the data
// already sits on disk, so a slow reader costs no server memory and TCP
// backpressure alone paces the transfer. A plain session's jobs are the
// raw frames, copied into writer scratch; a partitioned session's are
// their partition views, spliced as the tail's are — a frame the
// partition owns nothing of only moves the cursor. The spool checks
// every frame it hands out, so a corrupt segment ends the catch-up
// loudly instead of starving it.
func (w *sessionWriter) fromSpool(from, f uint64) (round, error) {
	s, sess := w.s, w.sess
	if w.rd == nil {
		if s.opt.spool == nil {
			return round{}, fmt.Errorf("%w: seq %d left the tail of a spool-less log", errLost, from)
		}
		rd, err := s.opt.spool.ReadFrom(from)
		if err != nil {
			return round{}, fmt.Errorf("%w: catch-up at seq %d: %v", errLost, from, err)
		}
		w.rd, w.pos = rd, from-1
	}
	w.jobs, w.buf = w.jobs[:0], w.buf[:0]
	eof := false
	for read := 0; read < s.opt.maxBatch && (f == 0 || w.pos < f); {
		first, n, raw, err := w.rd.NextFrame()
		if errors.Is(err, io.EOF) {
			eof = true
			break
		}
		if err != nil {
			return round{}, fmt.Errorf("%w: catch-up read: %v", errLost, err)
		}
		read += n
		w.pos = first + uint64(n) - 1
		if sess.parts == 0 {
			off := len(w.buf)
			w.buf = append(w.buf, raw...)
			w.jobs = append(w.jobs, chunk{first: first, last: w.pos, n: n, cursor: w.pos, payload: w.buf[off:]})
		} else {
			w.view(raw, first, w.pos)
		}
	}
	if eof && w.pos < from && s.opt.spool.End() < from {
		// Neither the tail nor the spool holds from: the tail only drops
		// what the spool took, so the spool must have failed under us.
		return round{}, fmt.Errorf("%w: stranded mid-catch-up by spool failure", errLost)
	}
	t := &s.tail
	t.mu.Lock()
	defer t.mu.Unlock()
	if sess.gen != w.gen {
		return round{}, errStale
	}
	return w.settle(w.pos, eof), nil
}

// settle closes a fill under tail.mu. It clamps the round at the fence
// barrier — jobs past it are dropped, and reaching it drains the
// source — and moves the client's cursor to cursor when the round
// carries jobs, drains the source, or covers advanceEvery silent
// events, publishing the new position as sent. sent therefore never
// runs ahead of what the writer frames.
func (w *sessionWriter) settle(cursor uint64, drained bool) round {
	sess := w.sess
	f := sess.fencedAt
	if f > 0 && cursor >= f {
		for len(w.jobs) > 0 && w.jobs[len(w.jobs)-1].cursor > f {
			w.jobs = w.jobs[:len(w.jobs)-1]
		}
		cursor, drained = f, true
	}
	r := round{from: sess.sent + 1}
	if cursor > sess.sent && (len(w.jobs) > 0 || drained || cursor >= sess.sent+w.s.advanceEvery()) {
		sess.sent = cursor
	}
	r.to = sess.sent
	switch {
	case !drained:
	case f > 0 && sess.sent >= f:
		// Everything the old owner is entitled to has been framed:
		// announce the cutover instead of more feed.
		r.end = wire.AppendRebal(nil, wire.Rebal{Barrier: f, Parts: sess.parts, NParts: sess.fenceNew})
	case w.s.tail.closing && w.rd == nil:
		r.end = eofFrame
	}
	return r
}

// emit writes a round: its jobs coalesced up to maxBatch events per
// frame, the last frame carrying the round's cursor — or, for a round
// with no jobs that moves the cursor, an empty fbatch that only
// advances it. A plain job starting below from (a resume landed inside
// it) is spliced into a frame starting there, the one frame a plain
// writer ever builds; a partitioned job is resent whole, and the client
// drops the sequences it already has.
func (w *sessionWriter) emit(from, to uint64) error {
	jobs := w.jobs
	if len(jobs) == 0 {
		if to < from {
			return nil
		}
		w.out = wire.AppendFBatch(w.out[:0], to, nil, nil)
		return writeFrame(w.bw, w.out)
	}
	if c := &jobs[0]; w.sess.parts == 0 && from > c.first {
		var ok bool
		if w.sfx, ok = wire.SuffixBatch(w.sfx[:0], c.payload, from); !ok {
			return fmt.Errorf("%w: corrupt frame at seq %d", errLost, c.first)
		}
		w.s.encodes.Add(1)
		c.first, c.n, c.payload = from, int(c.last-from+1), w.sfx
	}
	for len(jobs) > 0 {
		k, total := 1, jobs[0].n
		for k < len(jobs) && total+jobs[k].n <= w.s.opt.maxBatch {
			total += jobs[k].n
			k++
		}
		last := jobs[k-1].cursor
		if k == len(jobs) {
			last = to
		}
		payload := jobs[0].payload // shared or scratch bytes, zero copy
		if k > 1 || last != jobs[0].cursor {
			// Coalesce by joining the jobs' records under one header: a batch
			// from the first job's sequence, or an fbatch carrying cursor
			// last — byte-identical to a fresh encode, with no encoder.
			w.parts = w.parts[:0]
			for _, c := range jobs[:k] {
				w.parts = append(w.parts, c.payload)
			}
			w.out = wire.Join(w.out[:0], last, w.parts...)
			payload = w.out
		}
		if err := writeFrame(w.bw, payload); err != nil {
			return err
		}
		jobs = jobs[k:]
	}
	return nil
}

// flush writes out the buffered frames.
func (w *sessionWriter) flush() error {
	w.lastFlush = time.Now()
	return w.bw.Flush()
}

func (w *sessionWriter) closeReader() {
	if w.rd != nil {
		w.rd.Close()
		w.rd = nil
	}
}

// advanceEvery is how much silent (filtered-out) feed accumulates
// before a partitioned writer sends an empty fbatch purely to move
// the subscriber's cursor. Cursor advances are what let a partition
// subscriber's acks track the feed head — letting the tail drop and
// spool retention move — through stretches owned by other partitions.
// Tied to maxBatch so tests that shrink batches shrink advance
// latency with them.
func (s *Server) advanceEvery() uint64 { return uint64(s.opt.maxBatch) }

// view adds to the round the fbatch view the session's partition
// receives of the batch frame payload (sequences from first; the view
// advances the subscriber to cursor): the records the partition owns,
// spliced into w.buf behind their sequences, counted as one of
// ServerStats.Encodes. A frame the partition owns nothing of adds no
// job. Every frame seen here was checked on its way in — spliced or
// encoded by the broker, adopted, or read back by the spool — so no
// view is ever cut short.
func (w *sessionWriter) view(payload []byte, first, cursor uint64) {
	w.own = wire.Owned(w.own[:0], payload, w.sess.part, w.sess.parts)
	if len(w.own) == 0 {
		return
	}
	off := len(w.buf)
	w.buf = wire.SpliceFBatch(w.buf, cursor, payload, w.own)
	w.jobs = append(w.jobs, chunk{
		first:   first + uint64(w.own[0]),
		last:    first + uint64(w.own[len(w.own)-1]),
		n:       len(w.own),
		cursor:  cursor,
		payload: w.buf[off:],
	})
	w.s.encodes.Add(1)
}

// Stats returns a snapshot of feed accounting, including per-session
// subscriber lag and disk-tier bounds.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	seq := s.seq
	snaps, reb := s.controlStatsLocked()
	prod := make([]ProducerStats, 0, len(s.producers))
	for _, p := range s.producers {
		prod = append(prod, ProducerStats{
			ID:          p.id,
			Connected:   p.conn != nil,
			Epoch:       p.epoch,
			Batches:     p.batches,
			Events:      p.events,
			DedupeDrops: p.dups,
			EOF:         p.eof,
		})
	}
	s.mu.Unlock()
	t := &s.tail
	t.mu.Lock()
	first, head := t.first(), t.head
	per := make([]SessionStats, 0, len(t.sessions))
	for _, sess := range t.sessions {
		st := SessionStats{
			ID:        sess.id,
			Connected: sess.conn != nil,
			CatchUp:   sess.sent+1 < first,
			Relay:     sess.relay,
			Part:      sess.part,
			Parts:     sess.parts,
			Acked:     sess.acked,
			Window:    s.opt.replay,
		}
		if held := max(sess.acked, first-1); head > held {
			st.Buffered = int(head - held)
		}
		if seq > st.Acked {
			st.Behind = seq - st.Acked
		}
		st.Fill = float64(st.Buffered) / float64(st.Window)
		per = append(per, st)
	}
	t.mu.Unlock()
	sort.Slice(prod, func(i, j int) bool { return prod[i].ID < prod[j].ID })
	sort.Slice(per, func(i, j int) bool {
		if per[i].Behind != per[j].Behind {
			return per[i].Behind > per[j].Behind
		}
		return per[i].ID < per[j].ID
	})
	st := ServerStats{
		Broadcast:   seq,
		Delivered:   s.delivered.Load(),
		Encodes:     s.encodes.Load(),
		Adopted:     s.adopted.Load(),
		Hop:         int(s.hop.Load()),
		Sessions:    len(per),
		Evicted:     s.evicted.Load(),
		PerSession:  per,
		PerProducer: prod,
		Snapshots:   snaps,
		Rebalances:  reb,
	}
	if s.opt.spool != nil {
		st.SpoolFirst = s.opt.spool.First()
		st.SpoolEnd = s.opt.spool.End()
		if err := s.spoolErr.Load(); err != nil {
			st.SpoolErr = (*err).Error()
		}
	}
	return st
}

// NumClients returns the number of currently connected subscribers
// (lingering disconnected sessions not included).
func (s *Server) NumClients() int {
	t := &s.tail
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, sess := range t.sessions {
		if sess.conn != nil {
			n++
		}
	}
	return n
}

// Close stops accepting, drains every connected subscriber to the head
// (bounded by the drain timeout), sends each an eof frame, and waits
// for all connection goroutines to finish. All BroadcastBatch calls
// must have returned. The spool, if any, is not closed — it belongs to
// the caller and outlives the server.
func (s *Server) Close() error {
	seq, first, err := s.shut()
	if !first {
		return nil
	}
	t := &s.tail
	t.mu.Lock()
	// Let any batch already past the sequencer finish its fan-out, so
	// the final events reach the spool and the tail before the drain
	// starts.
	for t.next <= seq {
		t.ticket.Wait()
	}
	t.closing = true
	for _, sess := range t.sessions {
		if sess.conn != nil {
			sess.conn.SetWriteDeadline(time.Now().Add(DefaultDrainTimeout))
		} else {
			// Nothing to drain to; the session dies with the server (but
			// spooled events survive on disk for a restarted producer).
			// evictLocked counts the loss.
			s.evictLocked(sess)
		}
	}
	t.more.Broadcast() // writers: drain, eof, exit
	t.mu.Unlock()
	s.wg.Wait()
	// Final sweep: anything still owed here died undelivered (e.g. the
	// drain deadline cut off a stalled subscriber): that is loss, and
	// loss is always counted — unless the spool still holds it for a
	// future resume against a restarted producer.
	s.evictAll()
	return err
}

// evictAll evicts every session.
func (s *Server) evictAll() {
	t := &s.tail
	t.mu.Lock()
	for _, sess := range t.sessions {
		s.evictLocked(sess)
	}
	t.mu.Unlock()
}

// shut begins Close or Abort: it marks the server closing, stops
// accepting and severs every wire producer — a pbatch still in flight
// is refused by the closing sequencer (ingest checks s.closing), so the
// cut is clean and the producer's unacked batches stay unacked. It
// returns the head sequence and the listener's close error; first is
// false when an earlier Close or Abort began it, and shut has waited
// for that one's connection goroutines.
func (s *Server) shut() (seq uint64, first bool, err error) {
	s.mu.Lock()
	first = !s.closing
	if first {
		s.closing = true
		err = s.ln.Close()
		for _, p := range s.producers {
			if p.conn != nil {
				p.conn.Close()
				p.conn = nil
			}
		}
	}
	seq = s.seq
	s.mu.Unlock()
	if !first {
		s.wg.Wait()
	}
	return seq, first, err
}

// Abort is the test double for kill -9: it severs the listener and
// every connection without draining or sending eof, and leaves the
// spool exactly as a crash would — last appended frame durable,
// nothing flushed on the way out. Subscribers see a dead TCP peer, not
// a protocol goodbye, which is precisely what resume and relay
// reconnect logic must survive. Safe to call concurrently with
// BroadcastBatch/AdoptFrame; in-flight fan-outs are unblocked by the
// evictions rather than waited for.
func (s *Server) Abort() {
	if _, first, _ := s.shut(); !first {
		return
	}
	s.evictAll()
	s.wg.Wait()
}
