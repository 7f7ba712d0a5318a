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
// The lifecycle (docs/ARCHITECTURE.md, "Resume contract"):
//
//   - Start picks the starting state with one rule (pickSource): the
//     newest valid local checkpoint or the partition's broker offer,
//     whichever is fresher, the local one on a tie. With neither, the
//     worker joins the feed's live head, or backfills it from sequence
//     1 with FromStart.
//   - After each ingested batch an interval and a lag trigger may fire
//     a save: a checkpoint file, after which (and only after which) the
//     feed is acked, and with Handoff an offer to the broker's
//     rendezvous.
//   - A lost connection is checkpointed, then resumed with backoff.
//   - The feed's end, Stop and a live-rebalance retirement end with a
//     final save. Retirement always offers: the rebalance coordinator
//     is waiting for that snapshot. Kill is a crash: nothing is saved.
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
	"log"
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

	// Handoff (-handoff) offers a snapshot to the broker at every save
	// and lets Start adopt the partition's offer.
	Handoff bool

	// Dir (-checkpoint-dir) keeps the newest Keep (-checkpoint-keep)
	// checkpoint files; with it the feed is acked only through the
	// newest durable checkpoint. Empty: no local state.
	Dir  string
	Keep int

	// A save fires when Every (-checkpoint-every) has passed since the
	// last one, or, with Dir, once MaxLag (-checkpoint-max-lag; 0: off)
	// sequences are applied past the newest checkpoint. The lag trigger
	// keeps a fast feed flowing: acks move only at checkpoints, so a
	// worker that could drain the broker's whole in-memory tail between
	// two of them would leave a memory-only producer blocked on a full
	// tail while it waits for more — broken only by stall eviction.
	// MaxLag below the tail size (WithReplayBuffer, -window) makes that
	// state unreachable, partitioned workers included: the lag and the
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
	Events, Batches     int    // applied from the feed
	Checkpoints, Offers int    // successful saves of each kind
	Checkpointed        uint64 // sequence of the newest durable checkpoint (0: none)
}

// Worker is one detector process's lifecycle. Start it with Start (or
// let a Standby promote one); end it by ending the broker's feed, Stop
// or Kill; then Wait.
type Worker struct {
	cfg   Config
	p     *detector.Pipeline
	store *store // nil: no checkpoint dir

	session     string // subscriber session, the same across reconnects
	resume      uint64 // where the next dial starts (0: the live head)
	origin      string // the starting state, for the start-up log ("": cold)
	handoffSeq  uint64
	resumedFrom uint64
	lastSave    time.Time
	stats       Stats

	mu              sync.Mutex
	c               *stream.Client // current connection, for Kill and Stop
	killed, stopped atomic.Bool

	offered      atomic.Uint64 // highest sequence successfully offered
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
// to the key while the claim is fresh, whatever state wins.
func start(cfg Config, claim string) (*Worker, error) {
	if cfg.Parts < 0 || cfg.Part < 0 || cfg.Part >= max(cfg.Parts, 1) {
		return nil, fmt.Errorf("cluster: invalid partition %d/%d", cfg.Part, cfg.Parts)
	}
	w := &Worker{cfg: cfg, session: claim, lastSave: time.Now(), done: make(chan struct{})}
	var sources []snapshotSource
	if cfg.Dir != "" {
		st, err := openStore(cfg.Dir, cfg.Keep)
		if err != nil {
			return nil, err
		}
		w.store = st
		sources = append(sources, st)
	}
	if cfg.Handoff {
		sources = append(sources, brokerSource(func() (uint64, []byte, error) {
			return stream.FetchSnapshot(cfg.Addr, cfg.Part, cfg.Parts)
		}))
	}
	st, err := pickSource(cfg.Part, cfg.Parts, sources...)
	if err != nil {
		return nil, err
	}
	opts := []detector.PipelineOption{
		detector.WithGraphReconstruction(),
		detector.WithPartition(cfg.Part, cfg.Parts),
		detector.WithCheckEvery(cfg.CheckEvery),
		detector.WithFlagHook(cfg.OnFlag),
	}
	if st == nil {
		w.p = detector.NewPipeline(cfg.Rule, nil, opts...)
		if cfg.FromStart {
			w.resume = 1
		}
	} else {
		if st.path == "" {
			w.handoffSeq = st.Snapshot.Seq
			w.origin = fmt.Sprintf("adopted broker snapshot for partition %d/%d", cfg.Part, cfg.Parts)
		} else {
			w.stats.Checkpointed = st.Snapshot.Seq
			w.origin = "restored " + st.path
			w.session = cmp.Or(claim, st.Session)
		}
		if w.p, w.resume, err = detector.NewPipelineFromSnapshot(cfg.Rule, nil, st.Snapshot, opts...); err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", w.origin, err)
		}
		w.origin += fmt.Sprintf(": %d accounts, %d flags", len(st.Snapshot.Accounts), len(st.Snapshot.Flags))
	}
	w.session = cmp.Or(w.session, stream.NewSessionID())
	w.resumedFrom = w.resume
	c, err := w.connect()
	if err != nil {
		w.p.Close()
		return nil, err
	}
	go w.loop(c)
	return w, nil
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
			c.SetManualAck(w.store != nil)
			if c.LastSeq() > w.p.Seq() {
				// Anchor the pipeline at the subscription point, so a save
				// before the first batch records a sequence the feed can
				// resume from.
				w.p.Ingest(detector.Batch{LastSeq: c.LastSeq()})
			}
			w.signal(c) // and deliver a Kill or Stop that landed while dialing
			return c, nil
		case errors.Is(err, stream.ErrGap):
			return nil, fmt.Errorf("cluster: the feed cannot serve seq %d (history pruned or not spooled; remove a stale checkpoint dir to rebuild from scratch): %w", w.resume, err)
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
			// sent == delivered audit holds. A broker that ended the feed
			// is closing, so only Stop offers. A partitioned feed may end
			// on a foreign run, a bare cursor advance RecvBatch never
			// returns: pin the pipeline at the client's cursor first.
			if last := c.LastSeq(); last > w.p.Seq() {
				w.p.Ingest(detector.Batch{LastSeq: last})
			}
			w.save(c, w.cfg.Handoff && w.stopped.Load())
		default:
			// Connection lost. Checkpoint before resuming: a resume acks
			// everything below its start, so it must never start past the
			// newest durable checkpoint. drain trims what it replays.
			c.Close()
			if w.store != nil {
				w.save(nil, w.cfg.Handoff)
			}
			w.resume = cmp.Or(w.stats.Checkpointed, c.LastSeq()) + 1
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
		lag := w.store != nil && w.cfg.MaxLag > 0 && last-w.stats.Checkpointed >= uint64(w.cfg.MaxLag)
		if (w.store != nil || w.cfg.Handoff) && (lag || time.Since(w.lastSave) >= w.cfg.Every) {
			w.save(c, w.cfg.Handoff)
		}
	}
}

// save cuts a snapshot and keeps it: in a checkpoint file, after which
// the feed is acked through c (when c is non-nil), and, when offer is
// set, at the broker's rendezvous. Neither failure is fatal: the
// previous checkpoint generation and the broker's previous offer (or
// the spool) keep recovery possible. Kill is a crash: once it has
// landed, a save in progress keeps nothing more.
func (w *Worker) save(c *stream.Client, offer bool) {
	snap := w.p.Snapshot()
	w.lastSave = time.Now()
	if w.killed.Load() {
		return
	}
	if w.store != nil {
		if err := w.store.write(w.session, snap); err != nil {
			log.Printf("cluster: checkpoint failed (previous generation still valid): %v", err)
		} else {
			w.stats.Checkpoints++
			w.stats.Checkpointed = snap.Seq
			if c != nil {
				c.Ack(snap.Seq)
			}
		}
	}
	if !offer || snap.Seq == 0 {
		return // nothing applied yet is nothing worth adopting
	}
	// A failed offer is not logged: a closing broker refuses every save
	// of the worker's final catch-up. Stats counts the successes.
	data, err := json.Marshal(snap)
	if err == nil && !w.killed.Load() && stream.OfferSnapshot(w.cfg.Addr, w.cfg.Part, w.cfg.Parts, snap.Seq, data) == nil {
		w.offered.Store(snap.Seq)
		w.stats.Offers++
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

// Stop ends the worker gracefully: a final checkpoint, its ack sent
// through the interrupted connection, and with Handoff a final offer.
// It does not wait; Wait does.
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

// Origin describes the state the worker started from ("restored PATH:
// ..." or "adopted broker snapshot ..."), "" for a cold start.
func (w *Worker) Origin() string { return w.origin }

// ResumedFrom returns the feed sequence the first subscription started
// at: the starting state's sequence + 1, 1 for a FromStart cold start,
// 0 for one at the live head.
func (w *Worker) ResumedFrom() uint64 { return w.resumedFrom }

// Stats returns the worker's counters. Valid after Wait.
func (w *Worker) Stats() Stats { return w.stats }

// Rebalanced reports whether the worker was retired by a live
// rebalance, and if so the cutover barrier (its pipeline's final
// sequence) and the new partition group size. Valid after Wait.
func (w *Worker) Rebalanced() (barrier uint64, nparts int, ok bool) {
	return w.rebBarrier, w.rebNew, w.rebalanced
}
