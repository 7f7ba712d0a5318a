// Package stream carries OSN events over TCP, mirroring how the
// paper's detector consumed Renren's operational log feed in
// production. The protocol (version 3) is lossless: events carry
// global sequence numbers and travel in length-prefixed binary batches
// (internal/wire), each subscriber holds a bounded replay window on the
// server that is trimmed by client acknowledgements, and a subscriber
// that falls behind applies backpressure to the producer instead of
// losing its oldest events. A briefly-disconnected subscriber redials with its
// last delivered sequence and the server replays the gap, so delivery
// is at least once end to end (and exactly once through Subscribe,
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
// With WithSpool the replay path is two-tier: every broadcast batch
// is also appended to a disk spool (internal/spool), and a resume the
// in-memory window can no longer serve — a consumer that fell past
// the window, or one cold-starting from a stale checkpoint — is
// caught up from segment files and handed back to the live ring, so
// ErrGap retreats to genuine retention loss. A subscriber whose
// window fills is likewise demoted to disk catch-up instead of
// stalling the producer.
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
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// Server tunables. Each has a ServerOption override; the defaults suit
// production-shaped feeds, tests shrink them to force the edge cases.
const (
	// DefaultReplayBuffer is the per-subscriber replay window: events
	// broadcast but not yet acknowledged. A subscriber holding the
	// producer back for more than the window applies backpressure
	// (or, when a spool is configured, falls back to disk catch-up).
	DefaultReplayBuffer = 16384
	// DefaultMaxBatch caps events per batch frame.
	DefaultMaxBatch = 256
	// DefaultFlushEvery bounds how long a coalescing writer sits on
	// buffered bytes under sustained load.
	DefaultFlushEvery = 2 * time.Millisecond
	// DefaultSessionLinger is how long a disconnected session's replay
	// window is kept for resume before it is evicted.
	DefaultSessionLinger = 30 * time.Second
	// DefaultStallTimeout is how long BroadcastBatch blocks on one full
	// connected subscriber before evicting it (liveness backstop: a
	// dead-but-connected client cannot wedge the feed forever). Not
	// reached when a spool is configured — a full window demotes to
	// disk catch-up instead of blocking.
	DefaultStallTimeout = 30 * time.Second
	// DefaultDrainTimeout bounds Close: per-connection deadline for
	// flushing the remaining window and the eof frame.
	DefaultDrainTimeout = 5 * time.Second

	handshakeTimeout = 10 * time.Second
)

type serverOptions struct {
	replay     int
	maxBatch   int
	flushEvery time.Duration
	linger     time.Duration
	stall      time.Duration
	drain      time.Duration
	spool      *spool.Spool
	adopting   bool
}

// withAdopting marks the server as a sequence-adopting relay hop:
// its sequencer is seated by the upstream feed (AdoptFrame), so wire
// producers are rejected — adoption and local sequencing don't mix.
func withAdopting() ServerOption {
	return func(o *serverOptions) { o.adopting = true }
}

// ServerOption configures NewServer.
type ServerOption func(*serverOptions)

// WithReplayBuffer sets the per-subscriber replay window in events.
func WithReplayBuffer(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.replay = n
		}
	}
}

// WithMaxBatch sets the maximum events per batch frame.
func WithMaxBatch(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.maxBatch = n
		}
	}
}

// WithFlushEvery sets the coalescing writers' flush latency bound.
func WithFlushEvery(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d > 0 {
			o.flushEvery = d
		}
	}
}

// WithSessionLinger sets how long a disconnected session may await
// resume before eviction.
func WithSessionLinger(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d > 0 {
			o.linger = d
		}
	}
}

// WithStallTimeout sets how long BroadcastBatch waits on one full connected
// subscriber before evicting it (spool-less servers only).
func WithStallTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d > 0 {
			o.stall = d
		}
	}
}

// WithDrainTimeout sets the per-connection flush deadline Close
// applies.
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d > 0 {
			o.drain = d
		}
	}
}

// WithSpool attaches a disk spool as the second replay tier: every
// broadcast is appended to it, resumes the memory window cannot serve
// are caught up from its segments, and a subscriber overflowing its
// window is demoted to disk catch-up instead of applying backpressure
// or being evicted. The server adopts the spool's last sequence as
// its own starting sequence, so a restarted producer reusing a spool
// directory keeps the log gapless. Retention pruning runs on segment
// roll, pinned to the minimum acknowledged sequence across sessions.
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
	// append, and per-session delivery all happen after it is
	// released, ordered by the fan-out ticket below, so concurrent
	// producers overlap everything but the sequence assignment itself.
	mu      sync.Mutex
	seq     uint64 // last sequence number assigned
	closing bool

	// Wire-producer ingest (publish sub-protocol; see publish.go),
	// guarded by mu.
	producers       map[string]*producerState
	expectProducers int // producer group size, fixed by the first phello
	eofed           int // producers that closed their epoch
	ingestDone      chan struct{}

	// smu guards the sessions map — and nothing else. It is a leaf
	// lock in the order mu → sess.mu → smu: eviction deletes a map
	// entry while holding its sess.mu, and sessionList copies the
	// session list under smu alone, so callers touch each sess.mu only
	// after smu is released.
	smu      sync.Mutex
	sessions map[string]*session

	// Fan-out ticket: batches acquire sequence ranges under mu, then
	// hit the spool and the sessions strictly in sequence order.
	// fanNext is the first sequence whose batch has not yet completed
	// fan-out; Close waits for fanNext == seq+1 before draining.
	fanMu   sync.Mutex
	fanCond *sync.Cond
	fanNext uint64
	// fan is the fan-out body's scratch, reused across batches (safe:
	// the ticket serializes the body). Touched only by the batch
	// currently holding the ticket.
	fan fanScratch

	// encPool holds encode scratch (*[]byte) for BroadcastBatch, whose
	// encode runs before the ticket on whatever goroutines call it — a
	// pool instead of a lock keeps concurrent callers concurrent. Wire
	// producers don't use it: each connection owns its scratch.
	encPool sync.Pool

	// Incremental spool-retention floor: the min acked sequence
	// across sessions, recomputed (under smu) only when floorStale —
	// set by session churn and by acks that advance the current floor
	// — so a segment roll's Prune is O(1) in the common case.
	ackFloor   atomic.Uint64
	floorStale atomic.Bool

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

// chunk is one immutable pre-encoded slice of the feed: up to maxBatch
// events encoded exactly once into a canonical frame payload, then
// shared by reference — the spool appends the same bytes every
// subscriber socket writes. For an unpartitioned chunk the payload is
// a batch frame and first..last is a contiguous run. For a filtered
// chunk (parts > 0, built once per partition per batch and shared by
// every session on that partition) the payload is an fbatch frame,
// first/last are the first/last sequences the partition owns inside
// the source chunk, n counts only those, and cursor — the source
// chunk's end — is the feed position the frame advances the
// subscriber to.
type chunk struct {
	first   uint64
	last    uint64
	n       int
	cursor  uint64
	payload []byte
	part    int
	parts   int
}

// fanScratch is the transient state of one fan-out body: the session
// snapshot, the partition keys among its sessions, the view scratch
// and the filtered chunks per partition.
// Nothing in it outlives the ticket — the view payloads that do are
// spliced into allocations of their own.
type fanScratch struct {
	sessions []*session
	keys     []partKey
	partView
	fcache map[partKey][]*chunk
}

// retain returns the exactly-sized copy of an encoded payload that a
// chunk keeps (spliced payloads are built at their size and need no
// copy). Encoders run on reusable scratch, whose capacity is
// whatever the largest frame so far needed; the retained copy is
// immutable and garbage-collected, never recycled — session writers
// copy chunk pointers out under sess.mu and write the payloads to
// their sockets outside it, so a reused payload could be overwritten
// in the middle of a write.
func retain(scratch []byte) []byte { return bytes.Clone(scratch) }

// partKey identifies one partition, part of parts: a shared partition
// filter, or a control-plane key.
type partKey struct{ part, parts int }

// session is one subscriber's server-side state: a bounded window of
// shared frame chunks awaiting acknowledgement, cursors over the feed,
// and the (possibly nil, while disconnected) current connection.
//
// A session is in exactly one of two modes, which pick the source of
// its one writer loop. Live: the writer drains the chunk queue, which
// fan-out appends to. Catch-up (spool servers only): the queue is
// empty, the writer reads frames from the disk spool, and fan-out
// merely notes the advancing head (feedSeq); when the catch-up reaches
// the head the session flips back to live.
//
// A partitioned session (parts > 0) queues the shared filtered chunks
// built once per (part, parts) per batch — the writer forwards their
// fbatch payloads verbatim, so acks, window trims, spool retention,
// and resume all keep working in global feed coordinates while only
// the partition's slice crosses the wire.
type session struct {
	id  string
	srv *Server

	// Partitioned subscription (immutable after creation); parts == 0
	// means the full feed.
	part  int
	parts int

	// relay marks a subscriber that identified itself as an interior
	// relay hop (hello "relay":true) — audit only, delivery is
	// identical. Sticky across resumes; guarded by mu.
	relay bool

	window int // replay-window capacity in events (immutable)

	mu   sync.Mutex
	cond *sync.Cond // writer wake: pending chunks, acks, close, or conn change

	// chunks is the replay window: pre-encoded shared chunks in feed
	// order, chunks[:sentChunks] already framed to the client and
	// awaiting ack, the rest awaiting the writer. buffered counts the
	// events they hold against the window capacity: for an
	// unpartitioned session it is exactly tail−base (the front chunk
	// may be partially acknowledged), for a partitioned session the
	// sum of queued chunks' owned events (trimmed chunk-at-a-time
	// when a whole chunk falls at or below the ack).
	chunks     []*chunk
	sentChunks int
	buffered   int

	// Cursors: acked ≤ sent, base ≤ sent, and sent ≤ feedSeq but for
	// the moment after a catch-up flips live having read a batch whose
	// fan-out has not reached the session yet. In live mode
	// (base, base+buffered] is windowed: (base, sent] in flight,
	// the rest awaiting the writer, base tracking acked. In catch-up
	// mode the queue is empty and (acked, sent] are in flight from
	// disk; base is reset to sent when the session flips live, so
	// base can run ahead of acked until the client's acks catch up.
	// Partitioned sessions use the same cursors in global feed
	// coordinates: sent is the cursor covered by emitted frames (an
	// fbatch's "last"), base the trim floor — queued chunks hold
	// sequences > base.
	acked uint64
	sent  uint64
	base  uint64

	// ackedA mirrors acked for the lock-free retention-floor scan
	// (srv.ackFloor); it is written only under mu.
	ackedA atomic.Uint64

	catchup bool // writer streams from the spool instead of the queue
	// feedSeq is the feed position fan-out has dealt with for this
	// session: every run at or below it is queued, held by the spool for
	// a catch-up, or nothing to queue. It never covers a chunk still
	// waiting for window space, so a cursor advance never outruns the
	// queue.
	feedSeq uint64

	// Rebalance fence (sticky once set): this session receives nothing
	// past fencedAt; once everything at or below it is framed, the
	// writer emits a rebal announcement naming fenceNew and ends the
	// subscription. Set under sess.mu, either by the prepare walking
	// live sessions or by admit for sessions (re)joining a fenced
	// group.
	fencedAt uint64
	fenceNew int

	conn       net.Conn // nil while detached
	gen        int      // connection generation; stale writers exit on mismatch
	detachedAt time.Time
	closing    bool
	gone       bool // evicted: removed from srv.sessions

	space chan struct{} // capacity 1; producer wake after ack trim or detach
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
	// maxBatch run of a published batch, and one fbatch view per
	// (frame, partition) pair in which the partition owns an event.
	// Shared-frame delivery keeps it O(events/maxBatch + partitions)
	// per batch regardless of the subscriber count (each frame is built
	// once, not once per session). Writers add their own: a suffix
	// spliced for a resume that landed mid-frame, and one fbatch view per
	// spooled frame a partitioned catch-up session owns an event in.
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

// SessionStats is one subscriber session's flow-control view.
type SessionStats struct {
	ID        string  // client-chosen session id
	Connected bool    // false while lingering for resume
	CatchUp   bool    // serving from the disk spool, not the live ring
	Relay     bool    // subscriber identified itself as a relay hop
	Part      int     // partition index (meaningful when Parts > 0)
	Parts     int     // partition group size; 0 = full feed
	Acked     uint64  // highest sequence the client has acknowledged
	Behind    uint64  // events behind the feed head (broadcast − acked)
	Buffered  int     // replay-window fill: events held awaiting ack
	Window    int     // replay-window capacity
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
		replay:     DefaultReplayBuffer,
		maxBatch:   DefaultMaxBatch,
		flushEvery: DefaultFlushEvery,
		linger:     DefaultSessionLinger,
		stall:      DefaultStallTimeout,
		drain:      DefaultDrainTimeout,
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
		sessions:  make(map[string]*session),
		producers: make(map[string]*producerState),
		ctl: control{
			fences: make(map[int]*fence),
			claims: make(map[partKey]claim),
			seen:   make(map[partKey]bool),
			snaps:  make(map[partKey]snapshot),
		},
		ingestDone: make(chan struct{}),
		fan:        fanScratch{fcache: make(map[partKey][]*chunk)},
		encPool:    sync.Pool{New: func() any { return new([]byte) }},
	}
	if o.spool != nil {
		// Adopt the spooled log's position: a restarted producer
		// continues the sequence space instead of reusing numbers the
		// spool already assigned to different events.
		s.seq = o.spool.End()
	}
	s.fanCond = sync.NewCond(&s.fanMu)
	s.fanNext = s.seq + 1
	s.floorStale.Store(true)
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

// sessionList appends every registered session to dst, copied under
// smu alone, and returns it.
func (s *Server) sessionList(dst []*session) []*session {
	s.smu.Lock()
	defer s.smu.Unlock()
	for _, sess := range s.sessions {
		dst = append(dst, sess)
	}
	return dst
}

// BroadcastBatch assigns the events one contiguous run of sequence
// numbers and fans the batch out: the canonical frame is encoded
// exactly once per maxBatch chunk under no lock, appended to the
// spool (when configured), and shared by reference with every
// session's replay window — N subscribers cost N queue appends, not N
// re-encodes. Without a spool it blocks — up to the stall timeout per
// subscriber — while a connected subscriber's window is full, so a
// slow consumer slows the feed down instead of losing events; with a
// spool the full subscriber is demoted to disk catch-up and the feed
// keeps flowing. Safe for concurrent use (concurrent batches
// interleave at sequencing, never within a batch); must not overlap
// Close.
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
// shared chunk that the spool and every subscriber queue reference. An
// interior relay hop therefore costs zero encodes (the Encodes counter
// does not move) and zero event-level copies. The payload is retained
// by reference — the caller must hand over ownership and never reuse
// its backing array. It returns the frame's event count.
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
// bytes), then one queue append per session per chunk. Batches pass
// through strictly in sequence order — each waits for its ticket —
// which is what keeps the spool contiguous and every session's queue
// in feed order while concurrent producers build frames in parallel. n
// is the batch's event count. A partitioned session queues its
// partition's views of the chunks, built once per (part, parts) per
// batch and shared across sessions, so a hop with no partitioned
// subscribers never looks inside a frame.
func (s *Server) fanout(first uint64, n int, chunks []*chunk) {
	s.fanMu.Lock()
	for s.fanNext != first {
		s.fanCond.Wait()
	}
	s.fanMu.Unlock()

	if s.spoolUsable() {
		for _, c := range chunks {
			rolled, err := s.opt.spool.AppendFrame(c.first, c.n, c.payload)
			if err != nil {
				// The disk tier is gone, loudly; the memory tier keeps
				// the feed alive with its original semantics.
				s.spoolErr.CompareAndSwap(nil, &err)
				log.Printf("stream: spool append failed, disk replay tier offline: %v", err)
				break
			}
			if rolled {
				s.pruneSpool(c.last)
			}
		}
	}

	// The fan-out body runs exclusively (the next batch's ticket is
	// granted only at the bottom), so the session snapshot and the view
	// scratch are reused instead of allocated per batch.
	sessions := s.sessionList(s.fan.sessions[:0])
	s.fan.sessions = sessions

	keys := s.fan.keys[:0]
	for _, sess := range sessions {
		if k := (partKey{sess.part, sess.parts}); sess.parts > 0 && !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	s.fan.keys = keys
	s.views(chunks, keys)

	for _, sess := range sessions {
		if sess.parts == 0 {
			for _, c := range chunks {
				if !sess.appendChunk(c, c.cursor) {
					break
				}
			}
			continue
		}
		fchunks := s.fan.fcache[partKey{sess.part, sess.parts}]
		for i, c := range chunks {
			if !sess.appendChunk(fchunks[i], c.cursor) {
				break
			}
		}
	}

	s.fanMu.Lock()
	s.fanNext = first + uint64(n)
	s.fanCond.Broadcast()
	s.fanMu.Unlock()
}

// views fills the fan-out's fcache with the shared filtered chunks of
// every partition key in keys: one fbatch view per (key, source chunk),
// nil where the partition owns nothing in the chunk (the cursor-only
// case). Each view is spliced from the chunk's own records into a
// payload of its own. The caller holds the ticket, which serializes use
// of the scratch.
func (s *Server) views(chunks []*chunk, keys []partKey) {
	fcache := s.fan.fcache
	clear(fcache)
	if len(keys) == 0 {
		return
	}
	for _, k := range keys {
		fcache[k] = make([]*chunk, len(chunks))
	}
	for i, c := range chunks {
		for _, k := range keys {
			var payload []byte
			if v, ok := s.fan.view(&payload, c.payload, c.first, c.cursor, k.part, k.parts); ok {
				fcache[k][i] = &v
				s.encodes.Add(1)
			}
		}
	}
}

// waitFanned blocks until the batch containing seq has completed
// fan-out — in particular, until the spool holds it. Catch-up writers
// use it to bridge the window between sequence assignment and the
// spool append without spinning.
func (s *Server) waitFanned(seq uint64) {
	s.fanMu.Lock()
	for s.fanNext <= seq {
		s.fanCond.Wait()
	}
	s.fanMu.Unlock()
}

// pruneSpool runs retention after a segment roll, pinned to the ack
// floor. The floor is cached: the scan over sessions only reruns when
// session churn or a floor-advancing ack marked it stale, so the
// common roll is O(1). Holding smu across the compute-and-prune pair
// closes the race with a catch-up admit — a session resuming from the
// spool becomes visible to the scan (and re-checks retention) under
// the same lock, so pruning can never pass a just-admitted reader.
func (s *Server) pruneSpool(head uint64) {
	s.smu.Lock()
	floor := s.ackFloor.Load()
	if s.floorStale.Load() {
		s.floorStale.Store(false)
		floor = head
		for _, sess := range s.sessions {
			if a := sess.ackedA.Load(); a < floor {
				floor = a
			}
		}
		s.ackFloor.Store(floor)
	}
	s.opt.spool.Prune(floor)
	s.smu.Unlock()
}

// appendChunk adds one shared chunk to the session's window, blocking
// while a spool-less connected subscriber's window is full. cursor is
// the feed position the run ends at; it becomes the session's feedSeq
// only once the run is dealt with — queued, held by the spool for a
// catch-up, or nothing to queue — never while the chunk waits for
// window space, or the writer would advance the client's cursor over
// events not yet queued and the client would drop them as duplicates
// when they arrived. Returns false if the session was evicted.
func (sess *session) appendChunk(c *chunk, cursor uint64) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if f := sess.fencedAt; f > 0 {
		// Fenced session: nothing past the barrier is ever queued or
		// covered. The barrier falls on a batch boundary (both are
		// assigned under the sequencer lock) and a chunk never spans
		// batches, so a chunk is pre- or post-barrier wholesale.
		cursor = min(cursor, f)
		if c != nil && c.first > f {
			c = nil
		}
	}
	for {
		if sess.gone || sess.closing {
			return !sess.gone
		}
		lingered := sess.conn == nil && time.Since(sess.detachedAt) > sess.srv.opt.linger
		if c == nil || c.last <= sess.base || sess.catchup {
			// Nothing to queue: a foreign run (the partition owns none of
			// it), a run the session's cursors already cover (admitted
			// after the batch was sequenced), or a catch-up session, whose
			// spool holds the chunk. Only the cursor moves — the writer
			// frames a cursor advance once enough silent feed accumulates
			// — and no backpressure applies. The linger clock still does:
			// silence and disk catch-up do not extend a detached session's
			// lifetime (the data survives in the spool for a recreated
			// session).
			if lingered {
				sess.evictLocked()
				return false
			}
			sess.advanceLocked(cursor)
			return true
		}
		// An empty window always accepts a chunk (even one larger than
		// the window — transient overfill beats a permanent wedge when
		// window < maxBatch); otherwise the whole chunk must fit.
		full := sess.buffered > 0 && sess.buffered+c.n > sess.window
		if full && sess.srv.spoolUsable() && !lingered {
			// Window overflow with a disk tier: spill to catch-up
			// instead of blocking the producer (connected) or dying
			// (detached). The window's contents are all in the spool.
			sess.demoteLocked()
			sess.advanceLocked(cursor)
			return true
		}
		if sess.conn == nil && (full || lingered) {
			// Nobody to wait for: the window overflowed while detached
			// with no disk tier to spill to, or the resume window
			// expired.
			sess.evictLocked()
			return false
		}
		if !full {
			break
		}
		// Connected and full, no spool: backpressure, bounded by the
		// stall timeout.
		sess.mu.Unlock()
		timer := time.NewTimer(sess.srv.opt.stall)
		select {
		case <-sess.space:
			timer.Stop()
			sess.mu.Lock()
		case <-timer.C:
			sess.mu.Lock()
			if sess.buffered > 0 && sess.buffered+c.n > sess.window &&
				sess.conn != nil && !sess.gone && !sess.closing {
				sess.evictLocked()
				return false
			}
		}
	}
	sess.chunks = append(sess.chunks, c)
	sess.buffered += c.n
	sess.advanceLocked(cursor)
	return true
}

// advanceLocked moves feedSeq to cursor, the run ending there being
// dealt with, and wakes the writer. sess.mu must be held.
func (sess *session) advanceLocked(cursor uint64) {
	if cursor > sess.feedSeq {
		sess.feedSeq = cursor
	}
	sess.cond.Signal()
}

// demoteLocked switches the session from live queue delivery to spool
// catch-up. The queue is cleared — everything it held is on disk —
// and the writer picks up reading at sent+1. sess.mu must be held.
func (sess *session) demoteLocked() {
	sess.catchup = true
	sess.chunks = nil
	sess.sentChunks = 0
	sess.buffered = 0
	sess.cond.Broadcast()
	select {
	case sess.space <- struct{}{}:
	default:
	}
}

// evictLocked removes the session permanently. sess.mu must be held
// (smu is taken inside, just for the map delete — the identity check
// keeps a delayed eviction from deleting a newer session reusing the
// id). Loss is only counted when undelivered events die with the
// session irrecoverably — a usable spool still holds them for a later
// resume, so spooled evictions are not loss.
func (sess *session) evictLocked() {
	if sess.gone {
		return
	}
	sess.gone = true
	srv := sess.srv
	srv.smu.Lock()
	if srv.sessions[sess.id] == sess {
		delete(srv.sessions, sess.id)
	}
	srv.smu.Unlock()
	srv.floorStale.Store(true)
	undelivered := sess.buffered > 0 || (sess.catchup && sess.acked < sess.feedSeq)
	if undelivered && !srv.spoolUsable() {
		srv.evicted.Add(1)
	}
	if sess.conn != nil {
		sess.conn.Close()
		sess.conn = nil
	}
	sess.gen++
	sess.cond.Broadcast()
	select {
	case sess.space <- struct{}{}: // unblock a producer stalled on this window
	default:
	}
}

// ackTo processes a client acknowledgement: advance the delivered
// high-water mark, trim fully-acknowledged chunks, and wake a
// producer blocked on the window.
func (sess *session) ackTo(seq uint64) {
	sess.mu.Lock()
	if seq > sess.sent {
		seq = sess.sent // cannot ack what was never sent
	}
	if seq > sess.acked {
		sess.srv.delivered.Add(seq - sess.acked)
		old := sess.acked
		sess.acked = seq
		sess.ackedA.Store(seq)
		if old == sess.srv.ackFloor.Load() {
			// This session may have been the retention floor; let the
			// next roll rescan so pruning can make progress.
			sess.srv.floorStale.Store(true)
		}
	}
	switch {
	case sess.catchup:
	case sess.parts > 0:
		sess.trimPartLocked(seq)
	case seq > sess.base:
		sess.trimLocked(seq)
	}
	sess.mu.Unlock()
}

// trimLocked advances an unpartitioned session's trim floor to seq
// and drops fully-acknowledged chunks from the queue front (a
// straddling chunk stays until its last event is acked; its shared
// payload costs nothing extra). sess.mu must be held; seq > base.
func (sess *session) trimLocked(seq uint64) {
	sess.buffered -= int(seq - sess.base)
	sess.base = seq
	popped := 0
	for popped < len(sess.chunks) && sess.chunks[popped].last <= seq {
		sess.chunks[popped] = nil
		popped++
	}
	if popped > 0 {
		sess.chunks = sess.chunks[popped:]
		sess.sentChunks -= popped
		if sess.sentChunks < 0 {
			sess.sentChunks = 0
		}
	}
	select {
	case sess.space <- struct{}{}:
	default:
	}
}

// trimPartLocked drops queued chunks whose last owned sequence is at
// or below seq from a partitioned session's window and advances the
// trim floor. Acks name global feed cursors; trimming is
// chunk-granular (a chunk with any event above the ack stays whole —
// a chunk-sized overshoot, bounded by maxBatch, in exchange for never
// re-slicing a shared frame). sess.mu must be held.
func (sess *session) trimPartLocked(seq uint64) {
	popped := 0
	for popped < len(sess.chunks) && sess.chunks[popped].last <= seq {
		sess.buffered -= sess.chunks[popped].n
		sess.chunks[popped] = nil
		popped++
	}
	if popped > 0 {
		sess.chunks = sess.chunks[popped:]
		sess.sentChunks -= popped
		if sess.sentChunks < 0 {
			sess.sentChunks = 0
		}
		select {
		case sess.space <- struct{}{}:
		default:
		}
	}
	if seq > sess.base {
		sess.base = seq
	}
}

// attachLocked binds conn as the session's current connection, kicking
// any previous one. sess.mu must be held. Returns the new generation.
func (sess *session) attachLocked(conn net.Conn) int {
	if sess.conn != nil {
		sess.conn.Close()
	}
	sess.gen++
	sess.conn = conn
	sess.cond.Broadcast() // stop a stale writer
	select {
	case sess.space <- struct{}{}: // producer may re-evaluate: connected again
	default:
	}
	return sess.gen
}

// detach drops the session's connection (keeping the window for
// resume) if gen is still the current generation.
func (s *Server) detach(sess *session, gen int) {
	sess.mu.Lock()
	if sess.gen == gen && !sess.gone {
		sess.gen++
		if sess.conn != nil {
			sess.conn.Close()
			sess.conn = nil
		}
		sess.detachedAt = time.Now()
		sess.cond.Broadcast()
		select {
		case sess.space <- struct{}{}: // producer must stop waiting on acks
		default:
		}
	}
	sess.mu.Unlock()
}

// evict removes the session permanently, taking sess.mu.
func (s *Server) evict(sess *session) {
	sess.mu.Lock()
	sess.evictLocked()
	sess.mu.Unlock()
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
	if hello.Relay {
		sess.mu.Lock()
		sess.relay = true
		sess.mu.Unlock()
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
			sess.ackTo(f.Ack)
		}
	}
}

// admit registers or resumes the session named in hello and attaches
// conn to it. It returns the session, the connection generation and
// the first sequence the writer will send, or a rejection reason.
//
// Resume resolution is two-tier: the session's in-memory ring first;
// then, when the requested sequence has left memory (trimmed, window
// overflowed, session evicted or never known), the disk spool — the
// session is (re)created in catch-up mode and served from segments
// until it reaches the head. Only a sequence below the spool's
// retained range, or a missing/broken spool, rejects.
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
	s.smu.Lock()
	sess = s.sessions[hello.Session]
	s.smu.Unlock()
	if sess != nil && hello.Resume > 0 &&
		(sess.parts != hello.Parts || sess.part != hello.Part) {
		// A session's filter is part of its delivery state: the acks
		// and cursors only make sense for the slice they were earned
		// on. Changing partition means starting a fresh session.
		return nil, 0, 0, "partition mismatch for resumed session"
	}
	if hello.Resume == 0 {
		// Fresh subscription from the next broadcast on. Reusing a live
		// session id replaces (evicts) the old session.
		if sess != nil {
			s.evict(sess)
		}
		sess = s.newSessionLocked(hello.Session, s.seq, false, hello.Part, hello.Parts)
		sess.mu.Lock()
		gen = sess.attachLocked(conn)
		sess.mu.Unlock()
		return sess, gen, s.seq + 1, ""
	}
	r := hello.Resume
	if r > s.seq+1 {
		return nil, 0, 0, "resume sequence ahead of feed"
	}
	if sess == nil && r == s.seq+1 {
		// Resuming exactly at the head needs no replay from either
		// tier: admit a live session. This is also how a DialFrom(1)
		// subscriber joins an empty feed.
		sess = s.newSessionLocked(hello.Session, s.seq, false, hello.Part, hello.Parts)
		sess.mu.Lock()
		if fencedAt > 0 {
			sess.fencedAt, sess.fenceNew = fencedAt, fenceNew
			if sess.feedSeq > fencedAt {
				sess.feedSeq = fencedAt
			}
		}
		gen = sess.attachLocked(conn)
		sess.mu.Unlock()
		return sess, gen, r, ""
	}
	if sess != nil {
		sess.mu.Lock()
		if sess.gone {
			// Evicted between the map lookup and taking its lock (a
			// concurrent fan-out expired its linger): resume falls
			// through to the disk tier like any unknown session.
			sess.mu.Unlock()
			sess = nil
		}
	}
	if sess != nil {
		switch {
		case !sess.catchup && sess.parts == 0 && r > sess.base && r <= sess.base+uint64(sess.buffered)+1:
			// Memory tier: the window still holds (or abuts) r.
			// Resuming from r implicitly acknowledges everything
			// before it.
			if r-1 > sess.acked {
				s.delivered.Add(r - 1 - sess.acked)
				sess.acked = r - 1
				sess.ackedA.Store(r - 1)
			}
			if r-1 > sess.base {
				sess.trimLocked(r - 1)
			}
			// Rewind: resend anything in flight when the conn died.
			// Every remaining chunk ends above sent, so none count as
			// framed; the writer re-encodes a straddling front chunk's
			// suffix so the first frame starts exactly at r.
			sess.sent = r - 1
			sess.sentChunks = 0
			gen = sess.attachLocked(conn)
			sess.mu.Unlock()
			return sess, gen, r, ""
		case !sess.catchup && sess.parts > 0 && r > sess.base:
			// Partitioned memory tier: chunks at or below base are
			// trimmed, so r > base means every partition event ≥ r is
			// still queued. Resume implicitly acks below r; the writer
			// resends the remaining chunks whole (the client drops
			// per-event sequences at or below its cursor).
			if r-1 > sess.acked {
				s.delivered.Add(r - 1 - sess.acked)
				sess.acked = r - 1
				sess.ackedA.Store(r - 1)
			}
			sess.trimPartLocked(r - 1)
			sess.sent = r - 1
			sess.sentChunks = 0
			gen = sess.attachLocked(conn)
			sess.mu.Unlock()
			return sess, gen, r, ""
		case sess.catchup && r > sess.acked:
			// Already catching up; rewind the disk cursor to r.
			s.delivered.Add(r - 1 - sess.acked)
			sess.acked = r - 1
			sess.ackedA.Store(r - 1)
			sess.sent = r - 1
			gen = sess.attachLocked(conn)
			sess.mu.Unlock()
			return sess, gen, r, ""
		}
		// The memory tier cannot serve r (trimmed, or a stale client
		// behind its own acks). Fall through to the disk tier with a
		// fresh session object.
		if !s.spoolServes(r) {
			sess.mu.Unlock()
			return nil, 0, 0, "resume sequence already trimmed"
		}
		sess.evictLocked()
		sess.mu.Unlock()
	} else if !s.spoolServes(r) {
		if s.spoolUsable() {
			// A backfilling subscriber (DialFrom) asked below what
			// retention still holds.
			return nil, 0, 0, "resume sequence below the spool retention floor"
		}
		return nil, 0, 0, "unknown session (resume window expired)"
	}
	// Disk tier: catch up from segment files, then flip live.
	catchup := r <= s.seq
	sess = s.newSessionLocked(hello.Session, r-1, catchup, hello.Part, hello.Parts)
	if fencedAt > 0 {
		sess.mu.Lock()
		sess.fencedAt, sess.fenceNew = fencedAt, fenceNew
		if sess.feedSeq > fencedAt {
			sess.feedSeq = fencedAt
		}
		sess.mu.Unlock()
	}
	if catchup {
		// Retention re-check under smu, now that the session's ack
		// position is visible to the floor scan: a prune that raced
		// this admit either saw the session (and spared r) or finished
		// before this check (and is caught here). pruneSpool holds smu
		// across its compute-and-prune, so there is no in-between.
		s.smu.Lock()
		served := s.spoolServes(r)
		s.smu.Unlock()
		if !served {
			s.evict(sess)
			return nil, 0, 0, "resume sequence below the spool retention floor"
		}
	}
	sess.mu.Lock()
	gen = sess.attachLocked(conn)
	sess.mu.Unlock()
	return sess, gen, r, ""
}

// spoolServes reports whether the disk tier retains sequence r, or
// will: a usable spool that is still empty serves everything past its
// end, since a sequence assigned but not yet appended lands there next
// and the catch-up writer waits for its fan-out (waitFanned) before it
// reads. Caller holds s.mu.
func (s *Server) spoolServes(r uint64) bool {
	if !s.spoolUsable() {
		return false
	}
	if first := s.opt.spool.First(); first != 0 {
		return first <= r
	}
	return r > s.opt.spool.End()
}

// newSessionLocked registers a session whose cursors sit at seq
// (acked = sent = base = seq), subscribed to partition part of parts
// (0/0 for the full feed). The window is an empty chunk queue — no
// per-session event ring is allocated; queued chunks are shared.
// Caller holds s.mu; the map insert takes smu and marks the retention
// floor stale (the new session's ack position may lower it).
func (s *Server) newSessionLocked(id string, seq uint64, catchup bool, part, parts int) *session {
	sess := &session{
		id:      id,
		srv:     s,
		part:    part,
		parts:   parts,
		window:  s.opt.replay,
		acked:   seq,
		sent:    seq,
		base:    seq,
		feedSeq: s.seq,
		catchup: catchup,
		space:   make(chan struct{}, 1),
	}
	sess.ackedA.Store(seq)
	sess.cond = sync.NewCond(&sess.mu)
	s.smu.Lock()
	s.sessions[id] = sess
	s.floorStale.Store(true)
	s.smu.Unlock()
	return sess
}

// The session writer. One goroutine per connection frames its session
// onto the socket in rounds, and every round has the same shape:
//
//   - fill: take a job list from the session's source — the chunk
//     queue while live, a spool reader while catching up — and settle
//     it under sess.mu: clamp it at the fence barrier and publish how
//     far it moves the client's cursor (sent);
//   - emit: coalesce the jobs up to maxBatch events per frame by byte
//     splicing, splice the suffix of a plain job a resume landed inside,
//     or send a bare cursor advance once advanceEvery silent events have
//     passed;
//   - flush when the source is drained or flushEvery has passed;
//   - end: a drained round at the fence barrier is followed by rebal, a
//     drained live round on a closing server by eof; a drained
//     catch-up hands the session back to its queue.
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

// eofFrame is the goodbye a subscriber gets once its window drains at
// server close.
var eofFrame = []byte(`{"t":"` + frameEOF + `"}`)

// sessionWriter is one writer goroutine's state.
type sessionWriter struct {
	s    *Server
	sess *session
	gen  int
	bw   *bufio.Writer

	rd        *spool.Reader // the catch-up source; nil while the queue is
	pos       uint64        // last sequence rd has handed out
	jobs      []chunk       // the round's frames, in feed order (copies: a job may be rewritten)
	view      partView      // the partition view scratch of disk frames
	buf       []byte        // the payloads of disk jobs
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
	drained  bool // the source had nothing more to give
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
			conn.SetReadDeadline(time.Now().Add(s.opt.drain))
			return
		}
		if err == nil {
			err = w.flush(r.drained)
		}
		if err == nil && w.rd != nil && r.drained {
			err = w.flip()
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

// next fills the next round. The live source waits for something —
// queued chunks, advanceEvery silent events, the fence barrier, the
// server's close — and takes everything queued.
func (w *sessionWriter) next() (round, error) {
	if w.rd != nil {
		return w.fromSpool()
	}
	sess := w.sess
	adv := w.s.advanceEvery()
	sess.mu.Lock()
	for sess.gen == w.gen && !sess.closing && !sess.catchup && sess.sentChunks == len(sess.chunks) &&
		sess.feedSeq < sess.sent+adv && !(sess.fencedAt > 0 && sess.feedSeq >= sess.fencedAt) {
		sess.cond.Wait()
	}
	if sess.gen != w.gen {
		sess.mu.Unlock()
		return round{}, errStale
	}
	if sess.catchup {
		// Demoted, or admitted from disk: read the spool from sent+1. It
		// refuses a position past its end + 1, and the batch holding
		// sent (always sequenced) may still be mid-fan-out — the spool
		// append happens inside fanout — so let that batch land first.
		from := sess.sent + 1
		sess.mu.Unlock()
		w.s.waitFanned(from - 1)
		rd, err := w.s.opt.spool.ReadFrom(from)
		if err != nil {
			return round{}, fmt.Errorf("%w: catch-up at seq %d: %v", errLost, from, err)
		}
		w.rd, w.pos = rd, from-1
		return w.fromSpool()
	}
	w.jobs = w.jobs[:0]
	for _, c := range sess.chunks[sess.sentChunks:] {
		w.jobs = append(w.jobs, *c)
	}
	sess.sentChunks = len(sess.chunks)
	r := w.settle(max(sess.feedSeq, sess.sent), true)
	sess.mu.Unlock()
	return r, nil
}

// fromSpool reads the next run of disk frames: up to maxBatch events,
// stopping early at the spool's end or the fence barrier. There is no
// ack-driven flow control here — the data already sits on disk, so a
// slow reader costs no server memory and TCP backpressure alone paces
// the transfer (which is also what lets a manual-ack consumer whose
// acks are sparser than its window catch up). A plain session's jobs
// are the raw frames, copied into writer scratch; a partitioned
// session's are their partition views, spliced into writer scratch by
// the same helper fan-out uses — a frame the partition owns nothing of
// only moves the cursor. The spool checks every frame it hands out, so
// a corrupt segment ends the catch-up loudly instead of starving it.
func (w *sessionWriter) fromSpool() (round, error) {
	sess := w.sess
	sess.mu.Lock()
	f := sess.fencedAt
	sess.mu.Unlock()
	w.jobs, w.buf = w.jobs[:0], w.buf[:0]
	eof := false
	for read := 0; read < w.s.opt.maxBatch && (f == 0 || w.pos < f); {
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
		} else if v, ok := w.view.view(&w.buf, raw, first, w.pos, sess.part, sess.parts); ok {
			w.jobs = append(w.jobs, v)
			w.s.encodes.Add(1)
		}
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.gen != w.gen {
		return round{}, errStale
	}
	return w.settle(w.pos, eof), nil
}

// settle closes a fill under sess.mu. It clamps the round at the fence
// barrier — jobs past it are dropped, and reaching it drains the
// source — and moves the client's cursor to cursor when the round
// carries jobs, drains the source, or covers advanceEvery silent
// events, publishing the new position as sent. sent therefore never
// runs ahead of what the writer frames, as fan-out's feedSeq never
// runs ahead of what is queued.
func (w *sessionWriter) settle(cursor uint64, drained bool) round {
	sess := w.sess
	f := sess.fencedAt
	if f > 0 && cursor >= f {
		for len(w.jobs) > 0 && w.jobs[len(w.jobs)-1].cursor > f {
			w.jobs = w.jobs[:len(w.jobs)-1]
		}
		cursor, drained = f, true
	}
	r := round{from: sess.sent + 1, drained: drained}
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
	case sess.closing && w.rd == nil:
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
	if c := &jobs[0]; c.parts == 0 && from > c.first {
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

// flush applies the one flush rule: flush when the source is drained or
// flushEvery has passed since the last flush. The queue is re-read
// after the write, so chunks that arrived meanwhile coalesce into the
// next round instead of forcing a flush.
func (w *sessionWriter) flush(drained bool) error {
	if w.rd == nil {
		w.sess.mu.Lock()
		drained = w.sess.sentChunks == len(w.sess.chunks)
		w.sess.mu.Unlock()
	}
	if !drained && time.Since(w.lastFlush) < w.s.opt.flushEvery {
		return nil
	}
	w.lastFlush = time.Now()
	return w.bw.Flush()
}

// flip ends a catch-up that has read everything spooled. If no
// sequence was assigned past sent, the session goes live: sess.mu is
// held, so the next batch's fan-out finds it live and queues from
// sent+1. Otherwise it waits until fan-out shows the session past sent
// (which follows the spool append), or until the fence barrier or the
// server's close gives the next round something to end on.
func (w *sessionWriter) flip() error {
	s, sess := w.s, w.sess
	s.mu.Lock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	caughtUp := s.seq == sess.sent
	s.mu.Unlock()
	switch {
	case sess.gen != w.gen:
		return errStale
	case caughtUp:
		sess.catchup = false
		sess.base = sess.sent
		w.closeReader()
		return nil
	case s.spoolErr.Load() != nil:
		// The feed ran ahead of a dead spool: this gap can never be served.
		return fmt.Errorf("%w: stranded mid-catch-up by spool failure", errLost)
	}
	for sess.gen == w.gen && !sess.closing && sess.feedSeq <= sess.sent &&
		!(sess.fencedAt > 0 && sess.sent >= sess.fencedAt) {
		sess.cond.Wait()
	}
	if sess.gen != w.gen {
		return errStale
	}
	return nil
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
// subscriber's acks track the feed head — trimming spool retention
// and resume floors — through stretches owned by other partitions.
// Tied to maxBatch so tests that shrink batches shrink advance
// latency with them.
func (s *Server) advanceEvery() uint64 { return uint64(s.opt.maxBatch) }

// partView is the scratch of building partition views of batch frames:
// each view splices the records its partition owns. Fan-out runs it
// once per chunk for every partition key and gives each view a payload
// of its own; a catch-up writer runs it per disk frame on its own copy
// and splices the views into scratch bound straight for its socket.
// Every frame it sees was checked on its way in — spliced or encoded
// here, adopted, or read back by the spool — so no view is ever cut
// short: a frame that does not decode never gets this far.
type partView struct {
	own []int // one view's events, as positions in the frame
}

// view appends to *buf the fbatch view partition part of parts receives
// of the batch frame payload (sequences from first; the view advances
// the subscriber to cursor) and returns its chunk, whose payload aliases
// the appended bytes. ok is false when the partition owns nothing in
// the frame.
func (v *partView) view(buf *[]byte, payload []byte, first, cursor uint64, part, parts int) (c chunk, ok bool) {
	v.own = wire.Owned(v.own[:0], payload, part, parts)
	if len(v.own) == 0 {
		return chunk{}, false
	}
	off := len(*buf)
	*buf = wire.SpliceFBatch(*buf, cursor, payload, v.own)
	return chunk{
		first:   first + uint64(v.own[0]),
		last:    first + uint64(v.own[len(v.own)-1]),
		n:       len(v.own),
		cursor:  cursor,
		payload: (*buf)[off:],
		part:    part,
		parts:   parts,
	}, true
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
	sessions := s.sessionList(nil)
	per := make([]SessionStats, 0, len(sessions))
	for _, sess := range sessions {
		sess.mu.Lock()
		st := SessionStats{
			ID:        sess.id,
			Connected: sess.conn != nil,
			CatchUp:   sess.catchup,
			Relay:     sess.relay,
			Part:      sess.part,
			Parts:     sess.parts,
			Acked:     sess.acked,
			Buffered:  sess.buffered,
			Window:    sess.window,
		}
		sess.mu.Unlock()
		if seq > st.Acked {
			st.Behind = seq - st.Acked
		}
		if st.Window > 0 {
			st.Fill = float64(st.Buffered) / float64(st.Window)
		}
		per = append(per, st)
	}
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
	n := 0
	for _, sess := range s.sessionList(nil) {
		sess.mu.Lock()
		if sess.conn != nil {
			n++
		}
		sess.mu.Unlock()
	}
	return n
}

// Close stops accepting, drains every connected subscriber's remaining
// window (bounded by the drain timeout), sends each an eof frame, and
// waits for all connection goroutines to finish. All BroadcastBatch
// calls must have returned. The spool, if any, is not closed — it belongs
// to the caller and outlives the server.
func (s *Server) Close() error {
	seq, first, err := s.shut()
	if !first {
		return nil
	}
	// Let any batch already past the sequencer finish its fan-out, so
	// the final events reach the spool and every session's queue before
	// the drain starts.
	s.fanMu.Lock()
	for s.fanNext <= seq {
		s.fanCond.Wait()
	}
	s.fanMu.Unlock()

	for _, sess := range s.sessionList(nil) {
		sess.mu.Lock()
		if sess.gone {
			sess.mu.Unlock()
			continue
		}
		sess.closing = true
		if sess.conn != nil {
			sess.conn.SetWriteDeadline(time.Now().Add(s.opt.drain))
			sess.cond.Broadcast() // writer: drain, eof, exit
		} else {
			// Nothing to drain to; the window dies with the server
			// (but spooled events survive on disk for a restarted
			// producer). evictLocked counts the loss.
			sess.evictLocked()
		}
		sess.mu.Unlock()
	}
	s.wg.Wait()
	// Final sweep: anything still buffered here died undelivered (e.g.
	// the drain deadline cut off a stalled subscriber): that is loss,
	// and loss is always counted — unless the spool still holds it for
	// a future resume against a restarted producer.
	for _, sess := range s.sessionList(nil) {
		s.evict(sess)
	}
	return err
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
// every connection without draining windows or sending eof, and leaves
// the spool exactly as a crash would — last appended frame durable,
// nothing flushed on the way out. Subscribers see a dead TCP peer, not
// a protocol goodbye, which is precisely what resume and relay
// reconnect logic must survive. Safe to call concurrently with
// BroadcastBatch/AdoptFrame; in-flight fan-outs are unblocked by the
// evictions rather than waited for.
func (s *Server) Abort() {
	if _, first, _ := s.shut(); !first {
		return
	}
	for _, sess := range s.sessionList(nil) {
		s.evict(sess)
	}
	s.wg.Wait()
}
