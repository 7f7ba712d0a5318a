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
//     broker (a whole-feed worker's key is 0/1). With none, or one the
//     feed can no longer resume, the worker joins the feed's live head,
//     or backfills it from sequence 1 with FromStart.
//   - After each ingested batch an interval and a lag trigger may fire
//     a save: with Handoff, an offer to the broker, after which (and
//     only after the broker confirmed it) the feed is acked.
//   - A lost connection is saved, then resumed with backoff.
//   - Stop and a live-rebalance retirement end with a final save.
//     Retirement always offers: the rebalance coordinator is waiting
//     for that snapshot. Kill is a crash: nothing is saved.
//
// StartStandby parks a warm standby that promotes itself into a Worker
// when its partition's worker dies; Rebalance coordinates a live
// K → K' resize of a running cluster.
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

// Config describes one worker. Every field but Audit and OnFlag is the
// value of the cmd/detectd flag named beside it.
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
	// last one, or, with Handoff, once MaxLag (-checkpoint-max-lag; 0:
	// off) sequences are applied past the newest confirmed offer and
	// half that past the last save: a refused offer (a closing broker)
	// is retried every MaxLag/2 sequences, not at every batch. The lag
	// trigger keeps a fast feed flowing: acks move only at offers, so a
	// worker that could drain the broker's whole in-memory tail between
	// two of them would leave a memory-only producer blocked on a full
	// tail while it waits for more — broken only by stall eviction.
	// MaxLag below two thirds of the tail size (WithReplayBuffer,
	// -window; the default is half) makes that state unreachable, a
	// refused offer and partitioned workers included: the lag and the
	// tail both count feed sequences. (The lag is read when a batch
	// arrives, so a partitioned worker also needs one of its events at
	// least every window − MaxLag sequences; replicated accepts see to
	// that on campaign-shaped feeds.)
	Every  time.Duration
	MaxLag int

	// Audit records the global sequence of every owned-actor event the
	// worker applies (after replay trimming), for cutover audits: the
	// union of the cluster's audits must cover each sequence exactly
	// once across generations. Costs memory linear in owned events —
	// tests and verification runs only.
	Audit bool

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

// Worker is one detector process's lifecycle. Start it with Start (or
// let a Standby promote one); end it by ending the broker's feed, Stop
// or Kill; then Wait.
type Worker struct {
	cfg Config
	p   *detector.Pipeline

	session     string // subscriber session, the same across reconnects
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
	firstApplied atomic.Uint64 // lowest global sequence ingested (0: none yet)

	// Live-rebalance retirement; set by the loop before done closes.
	rebalanced bool
	rebBarrier uint64
	rebNew     int

	ownedSeqs []uint64 // Audit: applied owned-actor sequences, in order

	err  error // terminal loop error; read after done closes
	done chan struct{}
}

// Start picks the worker's starting state, subscribes, and begins
// ingesting in a background goroutine.
func Start(cfg Config) (*Worker, error) { return start(cfg, "") }

// start is Start for a standby holding a claim on the partition: every
// dial presents the claimed session id, the only one the broker admits
// to the key while the claim is fresh.
func start(cfg Config, claim string) (*Worker, error) {
	if cfg.Parts < 0 || cfg.Part < 0 || cfg.Part >= max(cfg.Parts, 1) {
		return nil, fmt.Errorf("cluster: invalid partition %d/%d", cfg.Part, cfg.Parts)
	}
	w := &Worker{cfg: cfg, session: claim, lastSave: time.Now(), done: make(chan struct{})}
	snap, err := adoptable(cfg)
	if err != nil {
		return nil, err
	}
	opts := []detector.PipelineOption{
		detector.WithGraphReconstruction(),
		detector.WithPartition(cfg.Part, cfg.Parts),
		detector.WithCheckEvery(cfg.CheckEvery),
		detector.WithFlagHook(cfg.OnFlag),
	}
	w.session = cmp.Or(w.session, stream.NewSessionID())
	for {
		if snap == nil {
			w.p = detector.NewPipeline(cfg.Rule, nil, opts...)
			if cfg.FromStart {
				w.resume = 1
			}
		} else {
			w.handoffSeq = snap.Seq
			w.origin = fmt.Sprintf("adopted broker snapshot for partition %d/%d", cfg.Part, max(cfg.Parts, 1))
			if w.p, w.resume, err = detector.NewPipelineFromSnapshot(cfg.Rule, nil, snap, opts...); err != nil {
				return nil, fmt.Errorf("cluster: %s: %w", w.origin, err)
			}
			w.origin += fmt.Sprintf(": %d accounts, %d flags", len(snap.Accounts), len(snap.Flags))
		}
		w.resumedFrom = w.resume
		c, err := w.connect()
		if errors.Is(err, stream.ErrGap) && snap != nil {
			// The feed no longer holds the snapshot's resume point (a
			// memory-only tail moved on past its dead worker's session):
			// start cold; this worker's first offer replaces it.
			w.p.Close()
			w.origin = fmt.Sprintf("broker snapshot at seq %d is past the feed's retention: cold start", snap.Seq)
			snap, w.handoffSeq, w.resume = nil, 0, 0
			continue
		}
		if err != nil {
			w.p.Close()
			return nil, err
		}
		go w.loop(c)
		return w, nil
	}
}

// adoptable returns the snapshot a worker with cfg starts from: with
// Handoff, the partition's snapshot at the broker, nil when it holds
// none. A snapshot stamped for another partition, or at another
// sequence than the broker announced, refuses the start.
func adoptable(cfg Config) (*detector.PipelineSnapshot, error) {
	if !cfg.Handoff {
		return nil, nil
	}
	seq, data, err := stream.FetchSnapshot(cfg.Addr, cfg.Part, max(cfg.Parts, 1))
	if errors.Is(err, stream.ErrNoSnapshot) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var snap detector.PipelineSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("cluster: decode broker snapshot: %w", err)
	}
	part, parts := cfg.Part, cfg.Parts
	if parts <= 1 {
		part, parts = 0, 0 // how the pipeline stamps a whole-feed run
	}
	switch {
	case snap.Part != part || snap.Parts != parts:
		return nil, fmt.Errorf("cluster: the broker's snapshot is for partition %d/%d, not %d/%d",
			snap.Part, snap.Parts, part, parts)
	case snap.Seq != seq:
		return nil, fmt.Errorf("cluster: broker snapshot announced seq %d but is stamped %d", seq, snap.Seq)
	}
	return &snap, nil
}

// connect dials the subscription at w.resume, retrying up to Retries
// consecutive failures with backoff. A refused resume (ErrGap) is
// final: the feed no longer holds the events the state needs.
func (w *Worker) connect() (*stream.Client, error) {
	opts := []stream.DialOption{stream.WithPartition(w.cfg.Part, w.cfg.Parts)}
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var c *stream.Client
		var err error
		if w.resume == 0 {
			c, err = stream.Dial(w.cfg.Addr, append(opts, stream.WithSessionID(w.session))...)
		} else {
			c, err = stream.DialResume(w.cfg.Addr, w.session, w.resume, opts...)
		}
		switch {
		case err == nil:
			c.SetManualAck(w.cfg.Handoff)
			if c.LastSeq() > w.p.Seq() {
				// Anchor the pipeline at the subscription point, so a save
				// before the first batch records a sequence the feed can
				// resume from.
				w.p.Ingest(detector.Batch{LastSeq: c.LastSeq()})
			}
			w.signal(c) // and deliver a Kill or Stop that landed while dialing
			return c, nil
		case errors.Is(err, stream.ErrGap):
			return nil, fmt.Errorf("cluster: the feed cannot serve seq %d (history pruned or not spooled; a restart adopts a resumable snapshot or starts cold): %w", w.resume, err)
		case attempt >= w.cfg.Retries || w.killed.Load() || w.stopped.Load():
			return nil, err
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, 2*time.Second)
	}
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
		case errors.Is(err, stream.ErrRebalanced):
			// The broker retired this group shape in a live rebalance,
			// having served everything owed through the barrier. Pin the
			// pipeline there (the tail may have been all foreign) and save
			// the cut the coordinator is waiting for.
			barrier, nparts, _ := c.Rebalanced()
			if barrier > w.p.Seq() {
				w.p.Ingest(detector.Batch{LastSeq: barrier})
			}
			w.save(c, true)
			w.rebalanced, w.rebBarrier, w.rebNew = true, barrier, nparts
		case errors.Is(err, stream.ErrBadFrame):
			// The feed sent a frame this build cannot decode; a resume
			// would only replay it.
			w.err = err
		case errors.Is(err, stream.ErrClosed) || w.stopped.Load():
			// Clean end of feed, or Stop: the final ack rides the
			// (interrupted but writable) connection, so the feed's
			// sent == delivered audit holds. A partitioned feed may end
			// on a foreign run, a bare cursor advance RecvBatch never
			// returns: pin the pipeline at the client's cursor first.
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
			if c, err = w.connect(); err != nil {
				if w.killed.Load() || !w.stopped.Load() {
					w.err = err
				}
				return
			}
			continue
		}
		c.Close()
		return
	}
}

// drain applies batches from c until a receive fails, saving whenever
// a trigger fires.
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
		for i := drop; w.cfg.Audit && i < n; i++ {
			if osn.Partition(evs[i].Actor, w.cfg.Parts) == w.cfg.Part {
				w.ownedSeqs = append(w.ownedSeqs, seqAt(i))
			}
		}
		w.p.Ingest(detector.Batch{Events: evs[drop:], LastSeq: last})
		w.stats.Events += n - drop
		w.stats.Batches++
		lag := uint64(w.cfg.MaxLag)
		if w.cfg.Handoff && (lag > 0 && last-w.durable() >= lag && last-w.lastSaveSeq >= lag/2 ||
			time.Since(w.lastSave) >= w.cfg.Every) {
			w.save(c, true)
		}
	}
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
	if err == nil && !w.killed.Load() && stream.OfferSnapshot(w.cfg.Addr, w.cfg.Part, max(w.cfg.Parts, 1), snap.Seq, data) == nil {
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
// Stop or retirement).
func (w *Worker) Wait() error {
	<-w.done
	w.p.Close()
	return w.err
}

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
