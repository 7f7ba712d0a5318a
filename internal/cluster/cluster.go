// Package cluster is the detector's one worker lifecycle: what
// cmd/detectd runs and what the cluster tests drive. A Worker
// subscribes to a feed broker — the whole feed, or one account
// partition of a K-way detection cluster (stream.WithPartition) with
// verdict authority over exactly that partition's accounts
// (detector.WithPartition) — and drains it into a pipeline that
// reconstructs the friendship graph from the feed. The union of K
// workers' flag sets equals a single unpartitioned run over the same
// feed: the broker delivers each its owned actor slice plus the
// cross-partition support events its accounts' features need
// (osn.PartitionDelivers), and evaluation ownership keeps verdicts
// exactly-once across the cluster.
//
// The broker is the only keeper of a worker's state: a worker's state
// is a cache of a function of the feed, so it is kept where the feed
// is, and is exactly as durable. The lifecycle (docs/ARCHITECTURE.md,
// "Resume contract"):
//
//   - Start, with Handoff, adopts the partition's snapshot at the
//     broker (a whole-feed worker's key is 0/1) in the subscribe
//     handshake, so the state adopted is the one the broker held when
//     it made the worker the key's owner. With none, or one the feed
//     can no longer resume, the worker joins the feed's live head, or
//     backfills it from sequence 1 with FromStart. A partition key has
//     one owner: while another worker's session holds it, Start waits.
//     A second worker with the same Config is therefore a spare that
//     takes over, with the dead owner's freshest offer, when the owner's
//     connection goes; if the broker closes the feed first, Start
//     returns stream.ErrClosed.
//   - A live rebalance (stream.PrepareRebalance) is a cutover record in
//     the feed, at the barrier. A worker of the group shape it retires
//     judges through the record and retires there (below), unless the
//     broker admitted it past a later rebalance back into its shape
//     (stream.Client.Reshaped): a replay of the feed from before an
//     earlier generation's cut judges on past that cut. On the shape
//     it cuts over to, the handshake hands a key with no state of its
//     own past the barrier the old K-way group's K snapshots at the
//     barrier instead; Start waits until all K are there. It re-keys
//     them (detector.RebalanceSnapshots), keeps its own partition,
//     resumes from barrier+1 and offers at once: the broker commits the
//     rebalance once every new key has. A worker of the retired shape
//     that would not reach the record has nothing to judge: Start
//     returns stream.ErrRebalanced at once.
//   - After each ingested batch an interval and a lag trigger may fire
//     a save: with Handoff, an offer to the broker, after which (and
//     only after the broker confirmed it) the feed is acked. The
//     broker sets the lag: each connection's welcome reports the tail
//     a memory-only broker holds its producers on for the worker's
//     acks, and a spooled broker, whose tail never waits, reports none
//     (offerLag).
//   - A lost connection is saved, then resumed with backoff. A resume
//     refused because another worker now holds the key (stream.ErrHeld)
//     ends the worker: that worker adopted its state.
//   - Stop and a live-rebalance retirement end with a final save.
//     Retirement always offers: the new workers adopt that cut. Kill is
//     a crash: nothing is saved.
package cluster

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/stream"
)

// Config describes one worker. Every exported field except OnFlag is
// the value of the cmd/detectd flag named beside it.
type Config struct {
	Addr        string        // -addr: broker address
	Part, Parts int           // -partition i/K; Parts 0 is the whole feed
	Rule        detector.Rule // -out-accept, -freq, -cc, -min-requests
	CheckEvery  int           // -check-every; below 1, every request
	Retries     int           // -retries: consecutive failed dials before giving up
	FromStart   bool          // -from-start: a cold start backfills from sequence 1

	// Handoff (-handoff) offers a snapshot to the broker at every save,
	// acks the feed only through the offers the broker confirmed, and
	// lets Start adopt the partition's offer. Without it the worker
	// keeps no state anywhere and acks whatever it receives.
	Handoff bool

	// A save fires when Every (-checkpoint-every) has passed since the
	// last one, or, with Handoff, on the lag trigger the broker sets
	// (offerLag).
	Every time.Duration

	// offerLag, when set, replaces the lag the broker's welcome sets, so
	// a test can place offers at feed positions (export_test.go).
	offerLag int

	// audit records the global sequence of every owned-actor event the
	// worker applies (after replay trimming), for cutover audits: the
	// union of the cluster's audits must cover each sequence exactly
	// once across generations (export_test.go).
	audit bool

	// OnFlag is called once per flagged account, on the ingest
	// goroutine (detector.WithFlagHook).
	OnFlag func(detector.Flag)
}

// Stats counts a worker's work. Valid after Wait.
type Stats struct {
	Events, Batches int    // applied from the feed
	Offers          int    // snapshot offers the broker confirmed
	Offered         uint64 // sequence of the newest confirmed offer (0: none)
}

// Worker is one detector process's lifecycle. Start it with Start; end
// it by ending the broker's feed, Stop or Kill; then Wait.
type Worker struct {
	cfg Config
	p   *detector.Pipeline

	session     string // subscriber session, the same across reconnects ("": not admitted yet)
	resume      uint64 // where the next dial starts (0: the live head)
	origin      string // the starting state, for the start-up log ("": cold)
	handoffSeq  uint64 // the adopted snapshot's sequence (0: none)
	resumedFrom uint64
	lastSave    time.Time // when the last save was tried
	lastSaveSeq uint64    // and the pipeline's sequence then
	stats       Stats

	mu              sync.Mutex
	c               *stream.Client // current connection, for Kill and Stop
	killed, stopped atomic.Bool

	offered      atomic.Uint64 // highest sequence the broker confirmed
	lag          atomic.Uint64 // the lag trigger set at the last connect (0: off)
	firstApplied atomic.Uint64 // lowest global sequence ingested (0: none yet)

	// Live-rebalance retirement; set by drain at the cutover record.
	rebalanced bool
	rebBarrier uint64
	rebNew     int

	ownedSeqs []uint64 // audit: applied owned-actor sequences, in order

	err  error // terminal loop error; read after done closes
	done chan struct{}
}

// heldPoll is how often a starting worker redials while another
// worker's session holds its partition key, or a rebalance cut it is
// to adopt is not complete.
const heldPoll = 50 * time.Millisecond

// Start subscribes — with Handoff adopting the key's broker snapshot,
// or re-keying a live rebalance's cut — and begins ingesting in a
// background goroutine. While another worker's session holds the key,
// or the cut is not complete, Start waits, redialing every heldPoll; it
// returns once the worker is admitted (having offered the re-keyed
// state), with an error wrapping stream.ErrRebalanced at once when a
// rebalance retired the key's shape before the worker's resume point,
// with one wrapping stream.ErrClosed at once when the broker closes
// the feed while it waits as a spare, or with an error once the broker
// stops answering (Retries consecutive failed dials).
func Start(cfg Config) (*Worker, error) {
	if cfg.Parts < 0 || cfg.Part < 0 || cfg.Part >= max(cfg.Parts, 1) {
		return nil, fmt.Errorf("cluster: invalid partition %d/%d", cfg.Part, cfg.Parts)
	}
	w := &Worker{cfg: cfg, lastSave: time.Now(), done: make(chan struct{})}
	if cfg.FromStart {
		w.resume = 1
	}
	c, snap, cut, err := w.first()
	if err != nil {
		return nil, err
	}
	opts := []detector.PipelineOption{
		detector.WithGraphReconstruction(),
		detector.WithPartition(cfg.Part, cfg.Parts),
		detector.WithCheckEvery(cfg.CheckEvery),
		detector.WithFlagHook(cfg.OnFlag),
	}
	if snap == nil {
		w.p = detector.NewPipeline(cfg.Rule, nil, opts...)
	} else if w.p, w.resume, err = detector.NewPipelineFromSnapshot(cfg.Rule, nil, snap, opts...); err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: %s: %w", w.origin, err)
	}
	w.resumedFrom = w.resume
	w.attach(c)
	if cut {
		w.save(c, true) // the broker commits the rebalance once every new key offered
	}
	go w.loop(c)
	return w, nil
}

// first dials the worker's first subscription and returns it with the
// snapshot it adopted in the handshake (nil: a cold start), and whether
// that is its share of a rebalance cut it re-keyed. A held snapshot the
// feed can no longer resume (a memory-only tail moved on past its dead
// worker's session) is passed over for a cold start: this worker's
// first offer replaces it.
func (w *Worker) first() (*stream.Client, *detector.PipelineSnapshot, bool, error) {
	c, err := w.connect(w.cfg.Handoff)
	if errors.Is(err, stream.ErrGap) && w.cfg.Handoff {
		w.origin = fmt.Sprintf("broker snapshot is past the feed's retention: cold start (%v)", err)
		c, err = w.connect(false)
	}
	if err != nil {
		return nil, nil, false, err
	}
	seq, data := c.Adopted()
	if seq == 0 {
		return c, nil, false, nil
	}
	part, parts := w.cfg.Part, max(w.cfg.Parts, 1)
	var snap *detector.PipelineSnapshot
	w.origin = fmt.Sprintf("adopted broker snapshot for partition %d/%d", part, parts)
	if len(data) == 1 {
		snap, err = adoptable(part, parts, seq, data[0])
	} else {
		snap, err = rekey(part, parts, seq, data)
		w.origin = fmt.Sprintf("adopted the cut of partition group %d at barrier %d for partition %d/%d", len(data), seq, part, parts)
	}
	if err != nil {
		c.Close()
		return nil, nil, false, err
	}
	w.handoffSeq = snap.Seq
	w.origin += fmt.Sprintf(": %d accounts, %d flags", len(snap.Accounts), len(snap.Flags))
	return c, snap, len(data) > 1, nil
}

// adoptable decodes the snapshot of partition part of parts that a
// handshake handed over, which the broker's welcome announced at seq. A
// snapshot stamped for another partition, or at another sequence,
// refuses the start.
func adoptable(part, parts int, seq uint64, data []byte) (*detector.PipelineSnapshot, error) {
	var snap detector.PipelineSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("cluster: decode broker snapshot: %w", err)
	}
	if parts <= 1 {
		part, parts = 0, 0 // how the pipeline stamps a whole-feed run
	}
	switch {
	case snap.Part != part || snap.Parts != parts:
		return nil, fmt.Errorf("cluster: the broker's snapshot is for partition %d/%d, not %d/%d",
			snap.Part, snap.Parts, part, parts)
	case snap.Seq != seq:
		return nil, fmt.Errorf("cluster: the broker's welcome announced its snapshot at seq %d but it is stamped %d", seq, snap.Seq)
	}
	return &snap, nil
}

// rekey decodes a rebalance cut, the old K-way group's snapshots at
// the barrier seq in partition order, and re-keys it into partition
// part of a group of parts.
func rekey(part, parts int, seq uint64, cut [][]byte) (*detector.PipelineSnapshot, error) {
	old := make([]*detector.PipelineSnapshot, len(cut))
	for p, data := range cut {
		var err error
		if old[p], err = adoptable(p, len(cut), seq, data); err != nil {
			return nil, err
		}
	}
	out, err := detector.RebalanceSnapshots(old, parts)
	if err != nil {
		return nil, fmt.Errorf("cluster: re-key the rebalance cut: %w", err)
	}
	return out[part], nil
}

// connect dials the subscription at w.resume — with adopt, adopting
// the key's held snapshot instead — retrying up to Retries consecutive
// failed dials with backoff. A refused resume (ErrGap) is final: the
// feed no longer holds the events the state needs. So is a rebalance's
// fence (ErrRebalanced): the shape's new owners judge from there. So is
// a key held by another worker, once this one was admitted: that worker
// adopted its state. Before that, a held key and an incomplete
// rebalance cut are waited out. A spare — a worker last refused as held
// — whose broker then refuses it as closing ends with an error wrapping
// stream.ErrClosed: it was never admitted and holds nothing, and the
// key's owner judged the feed. A worker waiting on a cut is the key's
// only designated owner, so it retries a closing broker like a failed
// dial, as a spare does a broker that stops answering (a kill or a
// restart looks the same from here).
func (w *Worker) connect(adopt bool) (*stream.Client, error) {
	opts := []stream.DialOption{stream.WithPartition(w.cfg.Part, w.cfg.Parts)}
	backoff := 50 * time.Millisecond
	for fails, spare := 0, false; ; {
		var c *stream.Client
		var err error
		switch {
		case adopt:
			c, err = stream.DialAdopt(w.cfg.Addr, w.resume, opts...)
		case w.session != "":
			c, err = stream.DialResume(w.cfg.Addr, w.session, w.resume, opts...)
		case w.resume > 0:
			c, err = stream.DialFrom(w.cfg.Addr, w.resume, opts...)
		default:
			c, err = stream.Dial(w.cfg.Addr, opts...)
		}
		switch {
		case err == nil:
			w.session = c.Session()
			c.SetManualAck(w.cfg.Handoff)
			w.lag.Store(uint64(cmp.Or(w.cfg.offerLag, offerLag(c.Window()))))
			return c, nil
		case (errors.Is(err, stream.ErrHeld) || errors.Is(err, stream.ErrCutPending)) && w.session == "":
			fails, backoff, spare = 0, 50*time.Millisecond, errors.Is(err, stream.ErrHeld) // the broker answers
			time.Sleep(heldPoll)
			continue
		case errors.Is(err, stream.ErrHeld):
			return nil, fmt.Errorf("cluster: partition %d/%d is owned by another worker, which adopted its state: %w",
				w.cfg.Part, max(w.cfg.Parts, 1), err)
		case errors.Is(err, stream.ErrRebalanced), errors.Is(err, stream.ErrGap) && adopt:
			return nil, err
		case errors.Is(err, stream.ErrGap):
			return nil, fmt.Errorf("cluster: the feed cannot serve seq %d (history pruned or not spooled; a restart adopts a resumable snapshot or starts cold): %w", w.resume, err)
		case spare && errors.Is(err, stream.ErrClosing):
			return nil, fmt.Errorf("cluster: partition %d/%d: the broker closed the feed while this worker waited (%v): %w",
				w.cfg.Part, max(w.cfg.Parts, 1), err, stream.ErrClosed)
		case fails >= w.cfg.Retries || w.killed.Load() || w.stopped.Load():
			return nil, err
		}
		fails++
		time.Sleep(backoff)
		backoff = min(2*backoff, 2*time.Second)
	}
}

// attach anchors the pipeline at c's subscription point, so a save
// before the first batch records a sequence the feed can resume from,
// makes c the current connection, and delivers a Kill or Stop that
// landed while dialing.
func (w *Worker) attach(c *stream.Client) {
	if c.LastSeq() > w.p.Seq() {
		w.p.Ingest(detector.Batch{LastSeq: c.LastSeq()})
	}
	w.signal(c)
}

// loop drains the subscription until the feed ends, the worker is
// retired, stopped or killed, or a lost connection cannot be resumed.
// It is the pipeline's only ingester, so its inline snapshots meet the
// pipeline's quiescence contract.
func (w *Worker) loop(c *stream.Client) {
	defer close(w.done)
	for {
		err := w.drain(c)
		switch {
		case w.killed.Load():
			w.err = err
		case w.rebalanced:
			// The pipeline ends at the record: save the cut the new
			// workers adopt, and ack nothing past it on the way out.
			w.save(c, true)
			c.SetManualAck(true)
		case errors.Is(err, stream.ErrBadFrame):
			// The feed sent a frame this build cannot decode; a resume
			// would only replay it.
			w.err = err
		case errors.Is(err, stream.ErrClosed) || w.stopped.Load():
			// Clean end of feed, or Stop: the final ack rides the
			// (interrupted but writable) connection, so the feed's
			// sent == delivered audit holds. A partitioned feed may end
			// on a foreign run, a bare cursor advance an auto-ack
			// RecvBatch never returns: pin the pipeline at the client's
			// cursor first.
			if last := c.LastSeq(); last > w.p.Seq() {
				w.p.Ingest(detector.Batch{LastSeq: last})
			}
			if errors.Is(err, stream.ErrClosed) {
				// A broker that ended the feed is closing: it takes no
				// more offers and keeps nothing more for this session.
				c.Ack(w.p.Seq())
			} else {
				w.save(c, w.cfg.Handoff)
			}
		default:
			// Connection lost. Save before resuming: a resume acks
			// everything below its start, so it must never start past the
			// newest confirmed offer. drain trims what it replays.
			c.Close()
			w.save(nil, w.cfg.Handoff)
			w.resume = cmp.Or(w.durable(), c.LastSeq()) + 1
			if c, err = w.connect(false); err != nil {
				if w.killed.Load() || !w.stopped.Load() {
					w.err = err
				}
				return
			}
			w.attach(c)
			continue
		}
		c.Close()
		return
	}
}

// drain applies batches from c until a receive fails, saving whenever
// a trigger fires, or until it applies the cutover record that retires
// the worker's group shape, when it returns nil: the pipeline then ends
// at the record's sequence, the barrier, and nothing past it is
// applied. With Handoff a batch may be empty: a partitioned feed's
// cursor advance past a foreign run, which pins the pipeline and runs
// the triggers like any batch, so a foreign run longer than the
// broker's tail is offered and acked.
func (w *Worker) drain(c *stream.Client) error {
	for {
		evs, err := c.RecvBatch()
		if err != nil {
			return err
		}
		last, applied := c.LastSeq(), w.p.Seq()
		if last <= applied {
			continue
		}
		// Skip any replayed prefix at or below the pipeline's position:
		// counters are not idempotent. Partitioned batches are sparse in
		// the global order and carry per-event sequences.
		seqs, n := c.LastBatchSeqs(), len(evs)
		seqAt := func(i int) uint64 {
			if seqs != nil {
				return seqs[i]
			}
			return last - uint64(n-1-i)
		}
		drop := 0
		for drop < n && seqAt(drop) <= applied {
			drop++
		}
		if drop < n && w.firstApplied.Load() == 0 {
			w.firstApplied.Store(seqAt(drop))
		}
		for i := drop; i < n; i++ {
			ev := evs[i]
			if w.cfg.audit && osn.Partition(ev.Actor, w.cfg.Parts) == w.cfg.Part {
				w.ownedSeqs = append(w.ownedSeqs, seqAt(i))
			}
			if ev.Type == osn.EvCutover && int(ev.Actor) == w.cfg.Parts && seqAt(i) > c.Reshaped() {
				w.rebalanced, w.rebBarrier, w.rebNew = true, seqAt(i), int(ev.Target)
				n, last = i+1, w.rebBarrier // the batch ends at the record
			}
		}
		w.p.Ingest(detector.Batch{Events: evs[drop:n], LastSeq: last})
		w.stats.Events += n - drop
		if n > 0 {
			w.stats.Batches++
		}
		if w.rebalanced {
			return nil
		}
		lag := w.lag.Load()
		if w.cfg.Handoff && (lag > 0 && last-w.durable() >= lag && last-w.lastSaveSeq >= lag/2 ||
			time.Since(w.lastSave) >= w.cfg.Every) {
			w.save(c, true)
		}
	}
}

// offerLag is the lag trigger for a broker whose welcome reported
// window: the applied sequences past the newest confirmed offer that
// fire an offer, 0 for none. Acks move only at offers, so a worker that
// could leave a memory-only broker's whole tail unacked between two of
// them would hold its producer until stall eviction. A refused offer
// (a closing broker) is retried half a lag later, so the unacked range
// reaches 1.5 lags plus one batch; two thirds of the tail less a batch
// keeps that inside the tail, partitioned workers included, since the
// lag and the tail both count feed sequences. A spooled broker's tail
// never waits (window 0): its worker offers on the interval alone.
func offerLag(window int) int {
	if window == 0 {
		return 0
	}
	return max(1, min(window/2, 2*(window-stream.DefaultMaxBatch)/3))
}

// durable is the newest sequence the broker holds this worker's state
// at: its newest confirmed offer, or the snapshot it adopted.
func (w *Worker) durable() uint64 { return max(w.offered.Load(), w.handoffSeq) }

// save cuts a snapshot and, when offer is set, offers it to the broker;
// once the broker confirms it, the feed is acked through it on c (when
// c is non-nil). A failure is not fatal: the broker's previous offer
// (or the spool) keeps recovery possible. Kill is a crash: once it has
// landed, a save in progress keeps nothing more.
func (w *Worker) save(c *stream.Client, offer bool) {
	w.lastSave, w.lastSaveSeq = time.Now(), w.p.Seq()
	if !offer || w.p.Seq() == 0 || w.killed.Load() {
		return // nothing applied yet is nothing worth adopting; a crash keeps nothing
	}
	snap := w.p.Snapshot()
	// A failed offer is not logged: a broker that is down refuses the
	// save before the resume. Stats counts the successes.
	data, err := json.Marshal(snap)
	if err == nil && !w.killed.Load() && stream.OfferSnapshot(w.cfg.Addr, w.session, w.cfg.Part, max(w.cfg.Parts, 1), snap.Seq, data) == nil {
		w.offered.Store(snap.Seq)
		w.stats.Offers++
		if c != nil {
			c.Ack(snap.Seq)
		}
	}
}

// signal makes c, when non-nil, the current connection, and delivers a
// pending Kill or Stop to the current connection.
func (w *Worker) signal(c *stream.Client) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if c != nil {
		w.c = c
	}
	switch {
	case w.c == nil:
	case w.killed.Load():
		w.c.Kick()
	case w.stopped.Load():
		w.c.Interrupt()
	}
}

// Kill severs the feed connection with nothing saved — a simulated
// crash. The worker does not reconnect; Wait returns the connection
// error.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.signal(nil)
}

// Stop ends the worker gracefully: with Handoff a final offer, and its
// ack sent through the interrupted connection. It does not wait; Wait
// does.
func (w *Worker) Stop() {
	w.stopped.Store(true)
	w.signal(nil)
}

// Wait blocks until the ingest loop has stopped, closes the pipeline,
// and returns the loop's terminal error (nil on clean end of feed,
// Stop or retirement; one wrapping stream.ErrHeld when another worker
// took the key over).
func (w *Worker) Wait() error {
	<-w.done
	w.p.Close()
	return w.err
}

// OfferLag returns the lag trigger set at the worker's latest connect:
// with Handoff, an offer once this many sequences are applied past the
// newest confirmed offer, besides one every Every; 0 when the broker's
// tail never waits for the worker's acks, and offers are on the
// interval alone.
func (w *Worker) OfferLag() int { return int(w.lag.Load()) }

// Pipeline exposes the worker's detector; its queries are safe at any
// time.
func (w *Worker) Pipeline() *detector.Pipeline { return w.p }

// Origin describes the state the worker started from ("adopted broker
// snapshot ...", or why a held one was passed over), "" for a cold
// start.
func (w *Worker) Origin() string { return w.origin }

// ResumedFrom returns the feed sequence the first subscription started
// at: the starting state's sequence + 1, 1 for a FromStart cold start,
// 0 for one at the live head.
func (w *Worker) ResumedFrom() uint64 { return w.resumedFrom }

// Stats returns the worker's counters. Valid after Wait.
func (w *Worker) Stats() Stats {
	st := w.stats
	st.Offered = w.offered.Load()
	return st
}

// Rebalanced reports whether the worker was retired by a live
// rebalance, and if so the cutover barrier (its pipeline's final
// sequence) and the new partition group size. Valid after Wait.
func (w *Worker) Rebalanced() (barrier uint64, nparts int, ok bool) {
	return w.rebBarrier, w.rebNew, w.rebalanced
}
