package stream

// The feed log: the broker's one totally ordered, append-only log of
// batch frames, and the readers every subscriber session is made of.
// It owns five jobs:
//
//   - sequencing: reserve claims a batch's run of sequences (or, on a
//     relay hop, the run an upstream frame already carries), and
//     publish appends the reserved batch behind the ticket, strictly in
//     sequence order;
//   - the spool append, its retention (pruneSpool) and the in-memory
//     tail of the last WithReplayBuffer feed events, which drops its
//     oldest chunks freely (dropLocked): a reader behind it reads the
//     spool. An append that fails stops the log (fail): nothing past
//     it is published;
//   - the one resume rule (open), and eviction (evictLocked);
//   - readers: a subscriber's cursors, and the rounds its writer frames
//     from the tail or the spool (fill).
//
// None of it touches a socket. A reader's connection is an io.Closer,
// closed when the reader is replaced, detached or evicted; the Server
// owns the sockets, and each session's writer frames the rounds onto
// one.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// closingBit marks feedLog.state once the log closes.
const closingBit = 1 << 63

// ErrClosing refuses a reservation on a closing log, and is returned
// by a dial the broker refused because it is closing: its feed is
// ending, and nothing was lost. A retry may reach a restarted broker; a
// spare still waiting to be admitted has nothing left to wait for.
var ErrClosing = errors.New("server closing")

// feedLog is the log. Lock order: Server.mu → feedLog.mu.
type feedLog struct {
	opt serverOptions

	// state is the sequencer: the last sequence reserved, with
	// closingBit set once the log closes, after which nothing more is
	// reserved. A reservation is one compare-and-swap and takes no lock,
	// so a producer never waits on writers splicing under mu.
	state atomic.Uint64

	// spoolErr holds the write failure that stopped the log (fail): a
	// spool append or sync, or a cutover note. It is set before the log
	// closes, and never cleared.
	spoolErr atomic.Pointer[error]

	encodes   atomic.Uint64 // canonical batch/fbatch frames built (ServerStats.Encodes)
	delivered atomic.Uint64
	evicted   atomic.Uint64

	// heldAt is when open last refused a key as held (UnixNano): the
	// refused worker is a spare, which redials until it is admitted or
	// told the feed ended, so Server.Close answers closing for
	// spareNotice past it.
	heldAt atomic.Int64

	// mu guards the tail, the ticket and the readers.
	mu     sync.Mutex
	more   *sync.Cond // writers: the log grew, close arrived, or a connection changed
	ticket *sync.Cond // batches waiting for their turn to publish

	// The tail: the shared chunks of the last opt.replay feed events in
	// feed order, contiguous, so buf[lo:] holds exactly [first(), head].
	buf  []*chunk
	lo   int
	head uint64 // last sequence published: what writers may read
	// next is the ticket, the first sequence of the batch whose turn it
	// is to publish. A range reserved but not yet published lies past
	// head, so the tail counts it as its own (it is empty there).
	next uint64

	readers map[string]*reader
}

// newFeedLog builds a log from the server options. A log on a spool
// continues the spooled one: its sequencer starts at the spool's end,
// so a restarted producer never reuses a sequence the spool already
// assigned to other events.
func newFeedLog(opts ...ServerOption) *feedLog {
	l := &feedLog{
		opt: serverOptions{
			replay:   DefaultReplayBuffer,
			maxBatch: DefaultMaxBatch,
			linger:   DefaultSessionLinger,
		},
		readers: make(map[string]*reader),
	}
	for _, fn := range opts {
		fn(&l.opt)
	}
	if l.opt.spool != nil {
		l.head = l.opt.spool.End()
	}
	l.state.Store(l.head)
	l.next = l.head + 1
	l.more, l.ticket = sync.NewCond(&l.mu), sync.NewCond(&l.mu)
	return l
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

// seq returns the last sequence reserved and whether the log is
// closing.
func (l *feedLog) seq() (last uint64, closing bool) {
	v := l.state.Load()
	return v &^ closingBit, v&closingBit != 0
}

// reserve claims the next n sequences for a batch its caller then
// publishes, and returns the first. at, when nonzero, is the first
// sequence an upstream frame of n events already carries, which a relay
// hop adopts: a frame wholly at or below the head is a reconnect resend
// and claims nothing (first is 0), one straddling the head claims its
// suffix from head+1, and one starting past head+1 is ErrAdoptGap. The
// check and the claim are one compare-and-swap, so an adopter racing
// another sequencer is refused instead of corrupting the order. A
// closing log reserves nothing.
func (l *feedLog) reserve(n int, at uint64) (first uint64, err error) {
	for {
		v := l.state.Load()
		head, last := v&^closingBit, v+uint64(n)
		switch {
		case v&closingBit != 0:
			return 0, cmp.Or(l.failed(), ErrClosing)
		case at == 0:
		case at+uint64(n) <= head+1:
			return 0, nil
		case at > head+1:
			return 0, fmt.Errorf("%w: head %d, frame starts at %d", ErrAdoptGap, head, at)
		default:
			last = at + uint64(n) - 1
		}
		if l.state.CompareAndSwap(v, last) {
			return head + 1, nil
		}
		if at > 0 {
			return 0, fmt.Errorf("stream: adopt: concurrent sequencing (head moved past %d)", head)
		}
	}
}

// publish appends one reserved batch, its chunks in sequence order.
// Batches publish strictly in sequence order — each waits for its
// ticket — which keeps the spool and the tail contiguous while
// concurrent producers build their frames in parallel. The batch goes
// to the spool first (the same shared bytes), then the tail drops what
// the batch displaces, and then it is pushed and every writer woken
// with one Broadcast. Nothing here waits on a reader. The log never
// looks inside a frame: partition views are their writers' work.
//
// A batch the spool does not take is not published: the append's
// failure stops the log (fail), and publish returns it, as it does for
// every batch whose turn comes after. Its ticket still passes on.
func (l *feedLog) publish(chunks []*chunk) error {
	first, last := chunks[0].first, chunks[len(chunks)-1].last
	l.mu.Lock()
	for l.next != first {
		l.ticket.Wait()
	}
	l.mu.Unlock()

	err := l.append(chunks)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next = last + 1
	l.ticket.Broadcast()
	if err != nil {
		return err
	}
	for _, r := range l.readers {
		// The linger clock runs here: silence and disk catch-up do not
		// extend a detached reader's lifetime (a spool keeps its data
		// for a recreated one).
		if r.conn == nil && time.Since(r.detachedAt) > l.opt.linger {
			l.evictLocked(r)
		}
	}
	l.dropLocked(int(last - first + 1))
	for _, c := range chunks {
		l.push(c)
	}
	l.more.Broadcast()
	return nil
}

// append appends a batch's chunks to the spool, running retention after
// a segment roll. A stopped log appends nothing, and a failed append
// stops it. The explorer's disk-free log has no spool.
func (l *feedLog) append(chunks []*chunk) error {
	if err := l.failed(); err != nil || l.opt.spool == nil {
		return err
	}
	for _, c := range chunks {
		rolled, err := l.opt.spool.AppendFrame(c.first, c.n, c.payload)
		if err != nil {
			return l.fail(err)
		}
		if rolled {
			l.pruneSpool(c.last)
		}
	}
	return nil
}

// errStopped is wrapped by the failure that stopped a log (fail).
var errStopped = errors.New("stream: broker stopped")

// fail stops the log on err, a write its promises rest on that failed:
// it records err, wrapped in errStopped, which ServerStats.SpoolErr
// names and a stopped log's refusals and reservations give, then shuts
// the log as a crash would (shut), so every reader is cut without eof.
// The first failure stands, and fail returns it.
func (l *feedLog) fail(err error) error {
	err = fmt.Errorf("%w: %w", errStopped, err)
	if l.spoolErr.CompareAndSwap(nil, &err) {
		log.Print(err)
	}
	l.shut(true)
	return l.failed()
}

// failed is the failure that stopped the log, nil if none.
func (l *feedLog) failed() error {
	if err := l.spoolErr.Load(); err != nil {
		return *err
	}
	return nil
}

// first returns the oldest sequence the tail holds, head+1 when it is
// empty. Caller holds l.mu.
func (l *feedLog) first() uint64 {
	if l.lo < len(l.buf) {
		return l.buf[l.lo].first
	}
	return l.head + 1
}

// after returns the tail's chunks that end past seq. Caller holds l.mu.
func (l *feedLog) after(seq uint64) []*chunk {
	cs := l.buf[l.lo:]
	return cs[sort.Search(len(cs), func(i int) bool { return cs[i].last > seq }):]
}

// push appends c to the tail, compacting the buffer in place once half
// of it is dropped space, so a warm tail appends without allocating.
// Caller holds l.mu.
func (l *feedLog) push(c *chunk) {
	if len(l.buf) == cap(l.buf) && l.lo >= len(l.buf)/2 {
		n := copy(l.buf, l.buf[l.lo:])
		clear(l.buf[n:])
		l.buf, l.lo = l.buf[:n], 0
	}
	l.buf = append(l.buf, c)
	l.head = c.last
}

// spoolServes reports whether the spool retains sequence r: its oldest
// segment starts at or below r. Anything the spool has not appended yet
// is still in the tail (publish appends to the spool first), so the
// caller checks r against the tail as well.
func (l *feedLog) spoolServes(r uint64) bool {
	if l.opt.spool == nil {
		return false
	}
	first := l.opt.spool.First()
	return first != 0 && first <= r
}

// pruneSpool runs retention after a segment roll, pinned to the lowest
// acknowledged sequence across readers. Holding l.mu across the scan
// and the prune closes the race with a resume served from the spool:
// open checks retention and registers the reader under the same lock,
// so pruning can never pass a just-admitted reader.
func (l *feedLog) pruneSpool(head uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	floor := head
	for _, r := range l.readers {
		floor = min(floor, r.acked)
	}
	l.opt.spool.Prune(floor)
}

// dropLocked makes room for a batch of n events: it drops chunks from
// the front of the tail until the batch fits in WithReplayBuffer
// events, or the tail is empty (a batch larger than the tail is still
// accepted). It never waits: a reader still owed a dropped chunk reads
// it from the spool. Caller holds l.mu.
func (l *feedLog) dropLocked(n int) {
	for len(l.buf) > l.lo && l.head+1-l.first()+uint64(n) > uint64(l.opt.replay) {
		l.buf[l.lo] = nil
		l.lo++
	}
}

// evictLocked removes r for good (the identity check keeps a delayed
// eviction from deleting a newer reader reusing the id), and reports
// whether this call removed it. An eviction is no loss: the spool
// still holds what r is owed, for a later resume. Only a reader the
// spool cannot serve is lost (reader.lose). Caller holds l.mu.
func (l *feedLog) evictLocked(r *reader) bool {
	if r.gone {
		return false
	}
	r.gone = true
	if l.readers[r.id] == r {
		delete(l.readers, r.id)
	}
	l.cutLocked(r)
	return true
}

// evictAll evicts every reader.
func (l *feedLog) evictAll() {
	l.mu.Lock()
	for _, r := range l.readers {
		l.evictLocked(r)
	}
	l.mu.Unlock()
}

// cutLocked ends r's connection generation: the connection, if any, is
// closed, and the writer serving it goes stale. Caller holds l.mu.
func (l *feedLog) cutLocked(r *reader) {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.gen++
	l.more.Broadcast()
}

// open registers or resumes the reader named want.id, attaches conn to
// it and returns it with the connection generation and the first
// sequence it will be sent — or the refusal, with its class. want
// carries the request: id, partition and relay flag.
//
// A partition key (parts ≥ 2) has one owner: while a reader with
// another id is connected on it, open refuses it as held. A detached
// reader holds nothing, and a resume of the holder's own id passes and
// cuts its old connection. Whole-feed readers share the feed freely.
//
// There is one resume rule: a resume at r is served iff r lies in
// [tail first, head+1] or the spool holds r, and a range reserved but
// not yet published counts as inside the tail. Whether the reader is
// still registered only decides which cursors carry over; a fresh
// subscription (resume 0) starts at the next sequence reserved. Every
// refused resume is a gap: the feed cannot serve it.
//
// A closed log refuses as closing, but a stopped one (fail) with a
// plain refusal: its feed did not end, so a client redials it as it
// would a dead broker, and a waiting spare goes on waiting.
func (l *feedLog) open(want *reader, resume uint64, conn io.Closer) (r *reader, gen int, from uint64, reject *frame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, closing := l.seq()
	switch err := l.failed(); {
	case closing && err != nil:
		return nil, 0, 0, refusal("", err.Error())
	case closing:
		return nil, 0, 0, refusal(classClosing, ErrClosing.Error())
	}
	for _, o := range l.readers {
		if o.conn != nil && o.id != want.id && o.part == want.part && o.parts == want.parts && want.parts >= 2 {
			l.heldAt.Store(time.Now().UnixNano())
			return nil, 0, 0, refusal(classHeld, "partition key held by another session")
		}
	}
	r = l.readers[want.id]
	from = resume
	switch {
	case from == 0:
		// Fresh subscription from the next reservation on. Reusing a
		// live id replaces (evicts) the old reader.
		from = seq + 1
		if r != nil {
			l.evictLocked(r)
			r = nil
		}
	case r != nil && (r.parts != want.parts || r.part != want.part):
		// A reader's filter is part of its delivery state: the acks and
		// cursors only make sense for the slice they were earned on.
		// Changing partition means starting a fresh session.
		return nil, 0, 0, refusal(classGap, "partition mismatch for resumed session")
	case from > seq+1:
		return nil, 0, 0, refusal(classGap, "resume sequence ahead of feed")
	case from < l.first() && !l.spoolServes(from):
		return nil, 0, 0, refusal(classGap, "resume sequence below the spool retention floor")
	}
	if r == nil {
		r = want
		r.l = l
		l.readers[r.id] = r
	} else if from-1 > r.acked {
		// Resuming from r implicitly acknowledges everything before it.
		l.delivered.Add(from - 1 - r.acked)
	}
	// Both cursors move to from-1, down as well as up: a client resuming
	// below its own acks pins what it asked for again.
	r.acked, r.sent = from-1, from-1
	r.relay = r.relay || want.relay
	l.cutLocked(r) // kick a previous connection and its writer
	r.conn = conn
	return r, r.gen, from, nil
}

// published waits until the log has published every sequence through
// seq, which must be reserved already: a reserved batch is always
// published, closing or not.
func (l *feedLog) published(seq uint64) {
	l.mu.Lock()
	for l.next <= seq {
		l.ticket.Wait()
	}
	l.mu.Unlock()
}

// connected counts the connected readers.
func (l *feedLog) connected() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, r := range l.readers {
		if r.conn != nil {
			n++
		}
	}
	return n
}

// sessionStats is every reader's flow-control view against the head,
// the last sequence published, worst-lagging first, and that head.
func (l *feedLog) sessionStats() ([]SessionStats, uint64) {
	l.mu.Lock()
	first, head := l.first(), l.head
	per := make([]SessionStats, 0, len(l.readers))
	for _, r := range l.readers {
		st := SessionStats{
			ID:        r.id,
			Connected: r.conn != nil,
			CatchUp:   r.sent+1 < first,
			Relay:     r.relay,
			Part:      r.part,
			Parts:     r.parts,
			Acked:     r.acked,
		}
		if held := max(r.acked, first-1); head > held {
			st.Buffered = int(head - held)
		}
		if head > st.Acked {
			st.Behind = head - st.Acked
		}
		per = append(per, st)
	}
	l.mu.Unlock()
	sort.Slice(per, func(i, j int) bool {
		if per[i].Behind != per[j].Behind {
			return per[i].Behind > per[j].Behind
		}
		return per[i].ID < per[j].ID
	})
	return per, head
}

// shut closes the log: nothing more is reserved, and once every batch
// reserved before it is published, writers drain to the head and end
// with eof. A crash (abort) instead evicts every reader in the same
// critical section, so no writer sees the log closing without also
// seeing its reader gone: an aborted log sends no eof, even when it
// was closed and draining already. It reports whether this call closed
// the log.
func (l *feedLog) shut(abort bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.state.Load()
	for !l.state.CompareAndSwap(v, v|closingBit) {
		v = l.state.Load()
	}
	if abort {
		for _, r := range l.readers {
			l.evictLocked(r)
		}
	}
	l.more.Broadcast()
	return v&closingBit == 0
}

// drainingLocked reports whether the log is closed and every batch
// reserved before it closed is published: writers end with eof once
// caught up. Caller holds l.mu.
func (l *feedLog) drainingLocked() bool {
	seq, closing := l.seq()
	return closing && l.next > seq
}

// advanceEvery is how much silent (filtered-out) feed accumulates
// before a partitioned writer sends an empty fbatch purely to move
// the subscriber's cursor. Cursor advances are what let a partition
// subscriber's acks track the feed head — letting spool retention
// move — through stretches owned by other partitions.
// Tied to maxBatch so tests that shrink batches shrink advance
// latency with them.
func (l *feedLog) advanceEvery() uint64 { return uint64(l.opt.maxBatch) }

// reader is one subscriber session's place in the log: its cursors
// and its (possibly nil, while detached) current connection.
// Everything but the immutable fields is guarded by feedLog.mu.
//
// A reader has no queue of its own. Its writer reads sent+1 from the
// tail while the tail holds it and from a spool reader while it does
// not. A partitioned reader (parts > 0) is sent its partition's views
// of the chunks, which its writer splices, so acks, spool retention and
// resume all keep working in global feed coordinates while only the
// partition's slice crosses the wire.
type reader struct {
	l  *feedLog
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

	conn       io.Closer // nil while detached
	gen        int       // connection generation; stale writers exit on mismatch
	detachedAt time.Time
	gone       bool // evicted: removed from the log
}

// ack processes a client acknowledgement: advance the delivered
// high-water mark, which also pins the spool's retention.
func (r *reader) ack(seq uint64) {
	l := r.l
	l.mu.Lock()
	seq = min(seq, r.sent) // cannot ack what was never sent
	if seq > r.acked {
		l.delivered.Add(seq - r.acked)
		r.acked = seq
	}
	l.mu.Unlock()
}

// detach drops r's connection, keeping its cursors for resume, if gen
// is still the current generation.
func (r *reader) detach(gen int) {
	l := r.l
	l.mu.Lock()
	if r.gen == gen && !r.gone {
		l.cutLocked(r)
		r.detachedAt = time.Now()
	}
	l.mu.Unlock()
}

// lose evicts r for good because the spool cannot serve it (errLost),
// and counts the loss once: the only loss ServerStats.Evicted counts.
func (r *reader) lose() {
	r.l.mu.Lock()
	if r.l.evictLocked(r) {
		r.l.evicted.Add(1)
	}
	r.l.mu.Unlock()
}

// errStale ends a fill whose connection generation moved on: the
// reader was resumed on another connection, detached or evicted.
var errStale = errors.New("stream: stale session writer")

// errLost marks a failure of the source itself — an unserviceable or
// corrupt spool, a corrupt frame — which a resume would only hit
// again: the reader is evicted loudly instead of detached.
var errLost = errors.New("session unserviceable")

// eofFrame is the goodbye a subscriber gets once it has drained the
// feed at close.
var eofFrame = marshalControl(frame{T: frameEOF})

// fill is one connection's pass over the log on behalf of a reader: it
// fills the rounds that connection's writer frames. A reader outlives
// its connections and a fill lives for one — gen is the generation it
// serves, and once that moves on the fill is stale. Every round has the
// same shape: take a job list from whichever source holds sent+1 — the
// tail, or a spool reader once the tail has moved past it — and settle
// it under the log's lock: publish how far it moves the client's cursor
// (sent). A drained tail round on a draining log ends with eof.
//
// What a fill builds — disk frames, partition views — lives in its own
// scratch, and once warm it allocates nothing per round.
type fill struct {
	r   *reader
	gen int

	rd   *spool.Reader // the spool source; nil while the tail holds sent+1
	pos  uint64        // last sequence rd has handed out
	seen uint64        // feed position the tail has been examined through (≥ sent)
	jobs []chunk       // the round's frames, in feed order (copies: a job may be rewritten)
	own  []int         // one view's events, as positions in its frame
	buf  []byte        // the payloads of disk jobs and partition views
}

// round is one fill: the jobs in fill.jobs are framed from sequence
// from and move the client's cursor to to; eof, when set, ends the
// subscription after them.
type round struct {
	from, to uint64
	eof      bool
}

// next fills the next round from whichever source holds sent+1. When
// the tail has nothing for the reader yet — the feed has not grown past
// what this fill has examined, and the log is not draining — next
// sleeps until it has if wait is set, and otherwise returns an empty
// round (to < from, no jobs) at once, so the writer can flush before it
// sleeps.
func (f *fill) next(wait bool) (round, error) {
	r, l := f.r, f.r.l
	l.mu.Lock()
	for {
		if r.gen != f.gen {
			l.mu.Unlock()
			return round{}, errStale
		}
		if from := r.sent + 1; from < l.first() {
			l.mu.Unlock()
			return f.fromSpool(from)
		}
		f.closeSpool()
		f.seen = max(f.seen, r.sent)
		if l.head > f.seen || l.drainingLocked() {
			if rd, ok := f.fromTail(); ok {
				l.mu.Unlock()
				return rd, nil
			}
			continue
		}
		if !wait {
			rd := round{from: r.sent + 1, to: r.sent}
			f.jobs = f.jobs[:0]
			l.mu.Unlock()
			return rd, nil
		}
		l.more.Wait()
	}
}

// fromTail fills a round from the tail's chunks past what this fill
// has examined: the chunks themselves for a full-feed reader; for a
// partitioned one their views, spliced on the fill's own scratch — a
// round stops splicing once its chunks cover maxBatch events, which
// bounds how long it holds the log's lock. ok is false when a
// partitioned reader found nothing it owns and fewer than advanceEvery
// events to cover: the round is not worth a frame yet. Caller holds
// l.mu.
func (f *fill) fromTail() (rd round, ok bool) {
	r, l := f.r, f.r.l
	f.jobs, f.buf = f.jobs[:0], f.buf[:0]
	cursor, drained, spliced := l.head, true, 0
	for _, c := range l.after(f.seen) {
		if r.parts == 0 {
			f.jobs = append(f.jobs, *c)
			continue
		}
		if spliced >= l.opt.maxBatch {
			cursor, drained = c.first-1, false
			break
		}
		spliced += c.n
		f.view(c.payload, c.first, c.cursor)
	}
	f.seen = cursor
	if len(f.jobs) == 0 && drained && !l.drainingLocked() && cursor < r.sent+l.advanceEvery() {
		return round{}, false
	}
	return f.settle(cursor, drained), true
}

// fromSpool reads the next run of disk frames from sent+1 (from): up to
// maxBatch events, stopping early at the spool's end. There is no ack-driven flow control here — the data
// already sits on disk, so a slow reader costs no server memory and TCP
// backpressure alone paces the transfer. A full-feed reader's jobs are
// the raw frames, copied into fill scratch; a partitioned reader's are
// their partition views, spliced as the tail's are — a frame the
// partition owns nothing of only moves the cursor. The spool checks
// every frame it hands out, so a corrupt segment ends the catch-up
// loudly instead of starving it.
func (f *fill) fromSpool(from uint64) (round, error) {
	r, l := f.r, f.r.l
	if f.rd == nil {
		if l.opt.spool == nil {
			return round{}, fmt.Errorf("%w: seq %d left the tail of a log with no spool", errLost, from)
		}
		rd, err := l.opt.spool.ReadFrom(from)
		if err != nil {
			return round{}, fmt.Errorf("%w: catch-up at seq %d: %v", errLost, from, err)
		}
		f.rd, f.pos = rd, from-1
	}
	f.jobs, f.buf = f.jobs[:0], f.buf[:0]
	eof := false
	for read := 0; read < l.opt.maxBatch; {
		first, n, raw, err := f.rd.NextFrame()
		if errors.Is(err, io.EOF) {
			eof = true
			break
		}
		if err != nil {
			return round{}, fmt.Errorf("%w: catch-up read: %v", errLost, err)
		}
		read += n
		f.pos = first + uint64(n) - 1
		if r.parts == 0 {
			off := len(f.buf)
			f.buf = append(f.buf, raw...)
			f.jobs = append(f.jobs, chunk{first: first, last: f.pos, n: n, cursor: f.pos, payload: f.buf[off:]})
		} else {
			f.view(raw, first, f.pos)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.gen != f.gen {
		return round{}, errStale
	}
	return f.settle(f.pos, eof), nil
}

// settle closes a fill under the log's lock. It moves the client's
// cursor to cursor when the round carries jobs, drains the source, or
// covers advanceEvery silent events, publishing the new position as
// sent. sent therefore never runs ahead of what the writer frames.
func (f *fill) settle(cursor uint64, drained bool) round {
	r, l := f.r, f.r.l
	rd := round{from: r.sent + 1}
	if cursor > r.sent && (len(f.jobs) > 0 || drained || cursor >= r.sent+l.advanceEvery()) {
		r.sent = cursor
	}
	rd.to = r.sent
	rd.eof = drained && l.drainingLocked() && f.rd == nil
	return rd
}

// view adds to the round the fbatch view the reader's partition
// receives of the batch frame payload (sequences from first; the view
// advances the subscriber to cursor): the records the partition owns,
// spliced into f.buf behind their sequences, counted as one of
// ServerStats.Encodes. A frame the partition owns nothing of adds no
// job. Every frame seen here was checked on its way in — spliced or
// encoded by the broker, adopted, or read back by the spool — so no
// view is ever cut short.
func (f *fill) view(payload []byte, first, cursor uint64) {
	f.own = wire.Owned(f.own[:0], payload, f.r.part, f.r.parts)
	if len(f.own) == 0 {
		return
	}
	off := len(f.buf)
	f.buf = wire.SpliceFBatch(f.buf, cursor, payload, f.own)
	f.jobs = append(f.jobs, chunk{
		first:   first + uint64(f.own[0]),
		last:    first + uint64(f.own[len(f.own)-1]),
		n:       len(f.own),
		cursor:  cursor,
		payload: f.buf[off:],
	})
	f.r.l.encodes.Add(1)
}

// closeSpool closes the spool source, if any.
func (f *fill) closeSpool() {
	if f.rd != nil {
		f.rd.Close()
		f.rd = nil
	}
}
