// Package stream carries OSN events over TCP, mirroring how the
// paper's detector consumed Renren's operational log feed in
// production. The protocol (version 4) is lossless: events carry
// global sequence numbers and travel in length-prefixed binary batches
// (internal/wire). The broker is one append-only log (log.go): it
// sequences every batch, publishes it in sequence order to the spool
// and to an in-memory tail of the last WithReplayBuffer feed events,
// and applies the one resume rule. Each subscriber session is a reader
// of that log — a pair of cursors, what was sent and what the client
// acknowledged — plus a socket writer that frames the reader's rounds
// onto its connection. A producer never waits on a subscriber: a
// subscriber that falls behind the tail reads the spool. A
// briefly-disconnected subscriber redials with its last delivered
// sequence and the log replays the gap, so delivery is at least once
// end to end (and exactly once through SubscribeBatch, which
// deduplicates on sequence numbers). Client (client.go) is the only
// code that speaks the subscriber side of the protocol: SubscribeBatch
// and a Relay's upstream link are the two callers of its one resume
// loop.
//
// The server is a producer-agnostic broker: events enter either via
// in-process BroadcastBatch calls or from any number of concurrent wire
// producers speaking the publish sub-protocol (phello/pbatch/pack —
// see publish.go and Publisher), all merged by the log's one sequencer
// into the same totally ordered feed. Producer batches carry
// per-producer sequence numbers so a reconnect's resends deduplicate,
// epochs let a killed-and-restarted deterministic producer resume
// exactly where the broker's log ends, and the downstream eof is
// emitted only after every registered producer has closed its epoch.
//
// Every log continues on disk (internal/spool): every batch is also
// appended to the spool, and a reader whose next sequence has left the
// tail — a subscriber that fell behind, one resuming after a long
// outage, one restarting from a stale snapshot — reads it from segment
// files until it reaches the tail again. The tail drops its oldest
// frames freely, so no subscriber holds the producer back, and ErrGap
// is genuine loss: retention pruned the range, or the spool failed.
// WithSpool names the spool (a deployment's directory, kept across
// restarts); without it the server opens a private one in a temporary
// directory and removes it when it closes.
//
// Besides the feed, a broker answers two one-shot control exchanges —
// a snapshot offer and a rebalance prepare, which sequences a cutover
// record into the feed — each on a short-lived connection of its own
// (see control.go, OfferSnapshot and PrepareRebalance). A partition key has one owner: admission refuses a
// second session on a held key (ErrHeld), and hands an adopting
// subscriber the key's held snapshot in the handshake, or, on a shape a
// live rebalance is cutting over to, the old group's snapshots at the
// barrier (DialKernel).
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
	"log"
	"net"
	"os"
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
	// feed events, shared by every subscriber: a subscriber that falls
	// out of it reads from the spool.
	DefaultReplayBuffer = 16384
	// DefaultMaxBatch caps events per batch frame.
	DefaultMaxBatch = 256
	// DefaultFlushEvery bounds how long a coalescing writer sits on
	// buffered bytes under sustained load.
	DefaultFlushEvery = 2 * time.Millisecond
	// DefaultSessionLinger is how long a disconnected session's cursors
	// are kept for resume before it is evicted.
	DefaultSessionLinger = 30 * time.Second
	// DefaultDrainTimeout bounds Close: a subscriber still draining the
	// remaining feed and the eof frame this long after Close began is cut
	// off.
	DefaultDrainTimeout = 5 * time.Second

	handshakeTimeout = 10 * time.Second
	// spareNotice is how long a spare may take between redials and still
	// hear from a closing server that the feed ended.
	spareNotice = 300 * time.Millisecond
)

type serverOptions struct {
	replay   int
	maxBatch int
	linger   time.Duration
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

// WithSpool continues the log on sp, which the caller owns and closes:
// every broadcast is appended to it, and a session whose next sequence
// has left the in-memory tail — a slow subscriber, or a resume reaching
// further back — reads it from the spool's segments. The server adopts
// the spool's last sequence as its own starting sequence, so a
// restarted producer reusing a spool directory keeps the log gapless.
// Retention pruning runs on segment roll, pinned to the minimum
// acknowledged sequence across sessions. Without WithSpool the server
// spools privately (NewServer).
func WithSpool(sp *spool.Spool) ServerOption {
	return func(o *serverOptions) { o.spool = sp }
}

// Server broadcasts events to TCP subscribers with at-least-once
// delivery. Events enter the feed two ways, freely mixed: in-process
// BroadcastBatch calls, and wire producers speaking the publish
// sub-protocol (see publish.go) — both run through the log's one
// sequencer, so the downstream feed is one totally ordered sequence
// space regardless of how many producers feed it. BroadcastBatch and
// Close must not overlap (wire producers need no such care: a closing
// sequencer refuses their batches); BroadcastBatch itself is safe for
// concurrent use.
//
// The Server holds the sockets: the listener, admission, the producer
// registry, the control plane and each session's writer. The feed
// itself — sequencing, the spool, the tail, the resume rule,
// backpressure and the sessions' cursors — is the log's.
type Server struct {
	ln  net.Listener
	log *feedLog

	// private is the directory of the spool NewServer opened itself
	// ("" when the caller passed WithSpool): the server closes that
	// spool and removes the directory when it closes.
	private string

	// mu guards the producer registry and the control plane. Admission,
	// a producer's dedupe and a rebalance's fence hold it across their
	// calls into the log (never across a publish). Lock order: mu →
	// log.mu.
	mu sync.Mutex

	// Wire-producer ingest (publish sub-protocol; see publish.go),
	// guarded by mu.
	producers       map[string]*producerState
	expectProducers int // producer group size, fixed by the first phello
	eofed           int // producers that closed their epoch
	ingestDone      chan struct{}

	// encPool holds encode scratch (*[]byte) for BroadcastBatch, whose
	// encode runs before the ticket on whatever goroutines call it — a
	// pool instead of a lock keeps concurrent callers concurrent. Wire
	// producers don't use it: each connection owns its scratch.
	encPool sync.Pool

	// Relay tier: adopted counts events ingested in sequence-adopting
	// mode (AdoptFrame — upstream frames re-served without an encode);
	// hop is this broker's depth in a relay tree (0 = root), learned
	// from the upstream welcome by the owning Relay and echoed in every
	// welcome this server sends.
	adopted atomic.Uint64
	hop     atomic.Int32

	// ctl is the control plane's state and decisions (plane.go),
	// guarded by mu.
	ctl plane

	wg sync.WaitGroup
}

// partKey identifies one partition, part of parts: a control-plane
// key.
type partKey struct{ part, parts int }

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
	// first, so an operator can see which consumer is falling behind.
	PerSession []SessionStats
	// PerProducer breaks ingest down by wire producer (publish
	// sub-protocol), sorted by id. Broadcast above remains the global
	// sent count: every producer's events land in the one sequence
	// space, so an audit against Delivered must use it, not any single
	// producer's count.
	PerProducer []ProducerStats
	// Spool accounting. SpoolFirst is the oldest retained sequence
	// (resumes reach back this far); SpoolErr reports the write failure
	// that took the disk tier offline, if any.
	SpoolFirst uint64
	SpoolEnd   uint64
	SpoolErr   string
	// Snapshots lists the detector snapshots currently held for
	// handoff, sorted by (parts, part); payloads are shared, read-only.
	Snapshots []spool.Snapshot
	// Rebalances is the append-only audit of every rebalance prepared
	// on this broker, in preparation order.
	Rebalances []RebalanceStats
}

// SessionStats is one subscriber session's flow-control view, in feed
// events for partitioned sessions too.
type SessionStats struct {
	ID        string // client-chosen session id
	Connected bool   // false while lingering for resume
	CatchUp   bool   // the session's next sequence has left the tail: its writer reads the spool
	Relay     bool   // subscriber identified itself as a relay hop
	Part      int    // partition index (meaningful when Parts > 0)
	Parts     int    // partition group size; 0 = full feed
	Acked     uint64 // highest sequence the client has acknowledged
	Behind    uint64 // events behind the feed head (broadcast − acked)
	Buffered  int    // feed events in the tail above Acked
}

// RebalanceStats describes one rebalance the broker holds, prepared
// here, adopted in its cutover record from upstream, or noted beside
// the spool before a restart: the old group shape, the
// new one, the sequence of the cutover record, and whether it
// committed: every key of the new shape offered a snapshot at or past
// the barrier.
type RebalanceStats struct {
	From      int    // old partition group size
	To        int    // new partition group size
	Barrier   uint64 // the cutover record's sequence: old owners end at it, new owners start after it
	Committed bool
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and starts accepting
// subscribers. Without WithSpool it opens a private spool in a new
// temporary directory, which Close and Abort remove: such a broker
// starts empty, as it would in memory, and still never makes a
// producer wait on a slow subscriber.
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	l := newFeedLog(opts...)
	var private string
	if l.opt.spool == nil {
		dir, err := os.MkdirTemp("", "stream-spool-")
		if err == nil {
			l.opt.spool, err = spool.Open(dir)
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("stream: private spool: %w", err)
		}
		private = dir
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		closeSpool(l.opt.spool, private)
		return nil, fmt.Errorf("stream: listen: %w", err)
	}
	s := &Server{
		ln:         ln,
		log:        l,
		private:    private,
		producers:  make(map[string]*producerState),
		ctl:        plane{log: l, snaps: make(map[partKey]spool.Snapshot), owners: make(map[partKey]string)},
		ingestDone: make(chan struct{}),
		encPool:    sync.Pool{New: func() any { return new([]byte) }},
	}
	// Nothing races the reload before the broker accepts.
	s.ctl.reload(l.opt.spool.LoadCutovers(), l.opt.spool.LoadSnapshots())
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
	seq, _ := s.log.seq()
	return seq
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

// BroadcastBatch assigns the events one contiguous run of sequence
// numbers and publishes the batch: the canonical frame is encoded
// exactly once per maxBatch chunk under no lock, appended to the spool
// and to the tail, where every subscriber reads the same bytes — N
// subscribers cost one append, not N re-encodes. It never waits on a
// subscriber: a slow one reads the chunks the tail dropped from the
// spool. Safe for concurrent use (concurrent batches interleave at
// sequencing, never within a batch); must not overlap Close.
func (s *Server) BroadcastBatch(evs []osn.Event) {
	if len(evs) == 0 {
		return
	}
	first, err := s.log.reserve(len(evs), 0)
	if err != nil {
		return // closed: nobody is left to read it
	}
	scratch := s.encPool.Get().(*[]byte)
	chunks := s.buildChunks(first, len(evs), func(off, end int, seq uint64) []byte {
		// The chunk keeps an exactly-sized copy of the frame encoded on
		// reusable scratch, whose capacity is whatever the largest frame
		// so far needed. The copy is immutable and garbage-collected,
		// never recycled: writers copy chunks out of the tail under the
		// log's lock and write the payloads to their sockets outside it,
		// so a reused payload could be overwritten in the middle of a
		// write.
		*scratch = wire.AppendBatch((*scratch)[:0], seq, evs[off:end])
		return bytes.Clone(*scratch)
	})
	s.encPool.Put(scratch)
	s.log.publish(chunks)
}

// buildChunks cuts a batch of n events sequenced from first into
// maxBatch runs and wraps each run's frame payload, frame(off, end,
// seq) for events [off, end) from sequence seq, in a chunk. Each frame
// built counts as one of ServerStats.Encodes. No lock is held — with
// multiple producers the frames themselves are built concurrently;
// only publication is ordered (by the log's ticket).
func (s *Server) buildChunks(first uint64, n int, frame func(off, end int, seq uint64) []byte) []*chunk {
	maxBatch := s.log.opt.maxBatch
	k := (n + maxBatch - 1) / maxBatch
	chunks := make([]*chunk, 0, k)
	slab := make([]chunk, 0, k) // one allocation for all chunk headers
	for off := 0; off < n; off += maxBatch {
		end := min(off+maxBatch, n)
		cf, cl := first+uint64(off), first+uint64(end)-1
		slab = append(slab, chunk{first: cf, last: cl, n: end - off, cursor: cl, payload: frame(off, end, cf)})
		chunks = append(chunks, &slab[len(slab)-1])
		s.log.encodes.Add(1)
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
// of taking new ones from the local sequencer, and its payload becomes
// the shared chunk that the spool and the tail reference. An interior
// relay hop therefore costs zero encodes (the Encodes counter does not
// move) and zero event-level copies. The payload is retained by
// reference — the caller must hand over ownership and never reuse its
// backing array. It returns the frame's event count.
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
	from, err := s.log.reserve(n, first)
	if err != nil || from == 0 {
		return n, err // refused, or a stale resend: everything here is already adopted
	}
	last := first + uint64(n) - 1
	if from > first {
		// Straddling resend: splice the surviving suffix. This is the one
		// frame adoption builds, at most once per upstream reconnect.
		payload, _ = wire.SuffixBatch(nil, payload, from)
		s.log.encodes.Add(1)
	}
	for i, ev := wire.NextCutover(payload, 0); i >= 0; i, ev = wire.NextCutover(payload, i+1) {
		s.learnCutover(ev, from+uint64(i))
	}
	adopt := int(last - from + 1)
	s.adopted.Add(uint64(adopt))
	s.log.publish([]*chunk{{first: from, last: last, n: adopt, cursor: last, payload: payload}})
	return n, nil
}

// serveConn reads the first frame and dispatches it through the
// first-frame table: a one-shot control request to serveControl, a
// phello to the ingest path, and a hello to admission, after which
// this goroutine runs the connection's ack reader and the session's
// writer runs in its own.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReaderSize(conn, 32<<10)
	payload, err := readFrame(br, nil)
	if err != nil {
		conn.Close()
		return
	}
	var hello frame
	if err := json.Unmarshal(payload, &hello); err != nil {
		refuse(conn, frameWelcome, refusal("", "malformed hello"))
		return
	}
	// Every refusal from here on carries the tag the client of the
	// exchange waits for; an unknown tag is answered as a subscribe
	// hello would be.
	row := firstFrames[hello.T]
	reply := cmp.Or(row.reply, frameWelcome)
	if hello.V != ProtocolVersion {
		refuse(conn, reply, refusal("", fmt.Sprintf("unsupported protocol version %d", hello.V)))
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch {
	case row.serve != nil:
		s.serveControl(conn, br, hello, row)
		return
	case hello.T == framePHello && s.log.opt.adopting:
		// A relay hop's sequencer is seated by the upstream feed, so it
		// admits no producers.
		refuse(conn, reply, refusal("", "broker is a relay hop: publish to the root broker"))
		return
	case hello.T == framePHello:
		s.servePublisher(conn, br, hello, payload)
		return
	case hello.T != frameHello || hello.Session == "":
		refuse(conn, reply, refusal("", "malformed hello"))
		return
	}

	s.mu.Lock()
	r, gen, welcome, snaps, reject := s.ctl.admit(hello, conn)
	s.mu.Unlock()
	if reject != nil {
		refuse(conn, reply, reject)
		return
	}
	// Adopted snapshots' payloads follow the welcome as raw frames,
	// under the handshake deadline, before the writer owns the socket.
	welcome.T, welcome.V, welcome.Adopt = frameWelcome, ProtocolVersion, hello.Adopt
	welcome.Hop, welcome.Snaps = int(s.hop.Load()), len(snaps)
	for _, sn := range snaps {
		welcome.Seq, welcome.Size = sn.Seq, welcome.Size+uint64(len(sn.Data))
	}
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	err = writeControl(conn, welcome)
	for _, sn := range snaps {
		if err == nil {
			err = writeFrame(conn, sn.Data)
		}
	}
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		r.detach(gen)
		return
	}
	s.wg.Add(1)
	go s.writer(r, conn, gen)

	// Ack reader: this goroutine owns conn teardown via detach.
	for {
		payload, err := readFrame(br, payload)
		if err != nil {
			r.detach(gen)
			return
		}
		var f frame
		if json.Unmarshal(payload, &f) == nil && f.T == frameAck {
			r.ack(f.Ack)
		}
	}
}

// refuse answers a connection's first frame with the refusal rep,
// tagged t, and closes the connection.
func refuse(conn net.Conn, t string, rep *frame) {
	rep.T, rep.V = t, ProtocolVersion
	writeControl(conn, *rep)
	conn.Close()
}

// sessionWriter is one session's socket writer: the log's fill for its
// connection, and the socket the rounds go to. One goroutine per
// connection runs it, and every round has the same shape:
//
//   - fill: the log hands over the round's jobs (fill.next);
//   - emit: coalesce the jobs up to maxBatch events per frame by byte
//     splicing, splice the suffix of a plain job a resume landed inside,
//     or send a bare cursor advance once advanceEvery silent events have
//     passed;
//   - flush when the log has nothing more for now, before the fill
//     sleeps, and at least every DefaultFlushEvery while it does not;
//   - end: a round that drains a closing log ends the subscription with
//     eof.
//
// Everything the writer builds lives in its own scratch and goes
// straight to the socket: it is never retained, and once warm the
// writer allocates nothing per frame.
type sessionWriter struct {
	fill
	bw        *bufio.Writer
	sfx       []byte   // a spliced suffix job
	parts     [][]byte // the payloads one coalesced frame joins
	out       []byte   // coalesced and cursor-advance frames
	lastFlush time.Time
}

// writer drains the session onto one connection until the connection
// dies, the generation moves on, or the subscription ends. At the end
// it arms a read deadline so the ack reader terminates too.
func (s *Server) writer(r *reader, conn net.Conn, gen int) {
	defer s.wg.Done()
	w := &sessionWriter{fill: fill{r: r, gen: gen},
		bw: bufio.NewWriterSize(conn, 64<<10), lastFlush: time.Now()}
	defer w.closeSpool()
	for {
		rd, err := w.next(w.bw.Buffered() == 0)
		if err == nil {
			err = w.emit(rd.from, rd.to)
		}
		if err == nil && rd.eof {
			writeFrame(w.bw, eofFrame)
			w.bw.Flush()
			conn.SetReadDeadline(time.Now().Add(DefaultDrainTimeout))
			return
		}
		if err == nil && (rd.to < rd.from || time.Since(w.lastFlush) >= DefaultFlushEvery) {
			err = w.flush()
		}
		if err != nil {
			// A stale writer ends quietly, a dead connection detaches
			// (the session stays resumable), and an unserviceable source
			// evicts the session loudly.
			if errors.Is(err, errLost) {
				log.Printf("stream: session %s: %v", r.id, err)
				r.evict()
			} else if !errors.Is(err, errStale) {
				r.detach(gen)
			}
			return
		}
	}
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
	if c := &jobs[0]; w.r.parts == 0 && from > c.first {
		var ok bool
		if w.sfx, ok = wire.SuffixBatch(w.sfx[:0], c.payload, from); !ok {
			return fmt.Errorf("%w: corrupt frame at seq %d", errLost, c.first)
		}
		w.r.l.encodes.Add(1)
		c.first, c.n, c.payload = from, int(c.last-from+1), w.sfx
	}
	for len(jobs) > 0 {
		k, total := 1, jobs[0].n
		for k < len(jobs) && total+jobs[k].n <= w.r.l.opt.maxBatch {
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

// Stats returns a snapshot of feed accounting, including per-session
// subscriber lag and disk-tier bounds.
func (s *Server) Stats() ServerStats {
	l := s.log
	s.mu.Lock()
	seq, _ := l.seq()
	snaps, reb := s.ctl.stats()
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
	per := l.sessionStats(seq)
	sort.Slice(prod, func(i, j int) bool { return prod[i].ID < prod[j].ID })
	st := ServerStats{
		Broadcast:   seq,
		Delivered:   l.delivered.Load(),
		Encodes:     l.encodes.Load(),
		Adopted:     s.adopted.Load(),
		Hop:         int(s.hop.Load()),
		Sessions:    len(per),
		Evicted:     l.evicted.Load(),
		PerSession:  per,
		PerProducer: prod,
		Snapshots:   snaps,
		Rebalances:  reb,
	}
	st.SpoolFirst, st.SpoolEnd = l.opt.spool.First(), l.opt.spool.End()
	if err := l.spoolErr.Load(); err != nil {
		st.SpoolErr = (*err).Error()
	}
	return st
}

// NumClients returns the number of currently connected subscribers
// (lingering disconnected sessions not included).
func (s *Server) NumClients() int {
	return s.log.connected()
}

// Close drains every connected subscriber to the head (bounded by the
// drain timeout), sends each an eof frame, and waits for all connection
// goroutines to finish. Every hello dialed in meanwhile is refused as
// closing, and the listener stays open for spareNotice past the last
// held refusal, so a waiting spare hears that the feed ended; a spare
// that finds the listener gone cannot tell a restart from an end. All
// BroadcastBatch calls must have returned. A spool passed WithSpool is
// not closed — it belongs to the caller and outlives the server; a
// private one is closed and removed.
func (s *Server) Close() error {
	if !s.log.shut(false) {
		s.ln.Close()
		s.wg.Wait()
		return nil
	}
	s.severProducers()
	time.Sleep(time.Until(time.Unix(0, s.log.heldAt.Load()).Add(spareNotice)))
	err := s.ln.Close()
	// A subscriber still draining after the drain timeout is cut off.
	cut := time.AfterFunc(DefaultDrainTimeout, s.log.evictAll)
	s.wg.Wait()
	cut.Stop()
	// Final sweep: anything still owed here died undelivered (e.g. the
	// drain timeout cut off a stalled subscriber, or a detached one had
	// nothing to drain to): that is loss, and loss is always counted —
	// unless the spool still holds it for a future resume against a
	// restarted producer.
	s.log.evictAll()
	s.closePrivate()
	return err
}

// Abort is the test double for kill -9: it severs the listener and
// every connection without draining or sending eof, and leaves the
// spool exactly as a crash would — last appended frame durable,
// nothing flushed on the way out. Subscribers see a dead TCP peer, not
// a protocol goodbye, which is precisely what resume and relay
// reconnect logic must survive. Safe to call concurrently with
// BroadcastBatch/AdoptFrame. A private spool is closed and removed once
// every publish already under way has finished.
func (s *Server) Abort() {
	s.ln.Close()
	shut := s.log.shut(true)
	if shut {
		s.severProducers()
	}
	s.wg.Wait()
	if shut {
		s.closePrivate()
	}
}

// closePrivate closes a private spool and removes its directory, once
// every batch reserved before the log closed is published (none is
// reserved after).
func (s *Server) closePrivate() {
	if s.private == "" {
		return
	}
	seq, _ := s.log.seq()
	s.log.published(seq)
	closeSpool(s.log.opt.spool, s.private)
}

// closeSpool closes the private spool sp and removes its directory.
func closeSpool(sp *spool.Spool, dir string) {
	sp.Close()
	os.RemoveAll(dir)
}

// severProducers cuts every wire producer's connection once the log is
// closed: a pbatch still in flight is refused by the closed sequencer,
// so the cut is clean and the producer's unacked batches stay unacked.
func (s *Server) severProducers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.producers {
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
	}
}
