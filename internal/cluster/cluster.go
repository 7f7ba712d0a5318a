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
// is, and is exactly as durable. Every decision about what a worker
// judges is its kernel's (stream.Kernel): which hello it sends, what a
// refusal means, which events of a batch it applies, where it retires,
// when it saves, what it acks and where it resumes. The control-plane
// explorer drives that same kernel. A Worker does the I/O around it:
// the dials and their backoff, the client, the pipeline, the snapshot
// codec, Kill and Stop. The lifecycle (docs/ARCHITECTURE.md, "Resume
// contract"):
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
//     (the welcome's barrier): a replay of the feed from before an
//     earlier generation's cut judges on past that cut. On the shape
//     it cuts over to, the handshake hands a key with no state of its
//     own past the barrier the old K-way group's K snapshots at the
//     barrier instead; Start waits until all K are there. It re-keys
//     them (detector.RebalanceSnapshots), keeps its own partition,
//     resumes from barrier+1 and offers at once: the broker commits the
//     rebalance once every new key has. A worker of the retired shape
//     that would not reach the record has nothing to judge: Start
//     returns stream.ErrRebalanced at once.
//   - After each ingested batch the save interval may fire a save:
//     with Handoff, an offer to the broker, after which (and only after
//     the broker confirmed it) the feed is acked. No broker waits on
//     those acks: they only move the spool's retention.
//   - A lost connection is saved, then resumed with backoff at the
//     newest state the broker holds, never past it. A resume refused
//     because another worker now holds the key (stream.ErrHeld) ends
//     the worker: that worker adopted its state.
//   - Stop and a live-rebalance retirement end with a final save.
//     Retirement always offers: the new workers adopt that cut. Kill is
//     a crash: nothing is saved.
package cluster

import (
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
	// last one (stream.Kernel.Due).
	Every time.Duration

	// saveEvery, when set, also fires a save at each batch that carries
	// the state past a multiple of saveEvery feed sequences, so a test
	// places offers at feed positions rather than wall-clock times
	// (export_test.go).
	saveEvery uint64

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
// it by ending the broker's feed, Stop or Kill; then Wait. Its kernel
// (stream.Kernel) decides what it judges; the Worker does the I/O.
type Worker struct {
	cfg Config
	k   stream.Kernel
	p   *detector.Pipeline

	origin      string // the starting state, for the start-up log ("": cold)
	handoffSeq  uint64 // the adopted snapshot's sequence (0: none)
	resumedFrom uint64
	stats       Stats

	mu              sync.Mutex
	c               *stream.Client // current connection, for Kill and Stop
	killed, stopped atomic.Bool

	offered      atomic.Uint64 // highest sequence the broker confirmed
	firstApplied atomic.Uint64 // lowest global sequence ingested (0: none yet)

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
	w := newWorker(cfg)
	c, snap, err := w.first()
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
		if cfg.FromStart {
			w.resumedFrom = 1
		}
	} else if w.p, w.resumedFrom, err = detector.NewPipelineFromSnapshot(cfg.Rule, nil, snap, opts...); err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: %s: %w", w.origin, err)
	}
	w.attach(c)
	if w.k.Cut() {
		w.save(c)
	}
	go w.loop(c)
	return w, nil
}

func newWorker(cfg Config) *Worker {
	return &Worker{cfg: cfg, done: make(chan struct{}), k: stream.Kernel{Part: cfg.Part, Parts: cfg.Parts,
		Handoff: cfg.Handoff, FromStart: cfg.FromStart, Every: cfg.Every}}
}

// first dials the worker's first subscription and returns it with the
// snapshot it adopted in the handshake (nil: a cold start), re-keyed
// when it is a rebalance cut.
func (w *Worker) first() (*stream.Client, *detector.PipelineSnapshot, error) {
	c, err := w.connect()
	if err != nil {
		return nil, nil, err
	}
	seq, data := c.Adopted()
	if seq == 0 {
		return c, nil, nil
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
		return nil, nil, err
	}
	w.handoffSeq = snap.Seq
	w.origin += fmt.Sprintf(": %d accounts, %d flags", len(snap.Accounts), len(snap.Flags))
	return c, snap, nil
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

// connect dials the kernel's hellos until one is admitted, the kernel
// ends the worker (its refusal table, stream.Kernel.Refused), or Retries
// consecutive dials failed. A refusal the kernel waits out — a held
// key, an incomplete rebalance cut, or a held snapshot past the feed,
// which it passes over for a cold start — is redialed every heldPoll.
func (w *Worker) connect() (*stream.Client, error) {
	backoff := 50 * time.Millisecond
	for fails := 0; ; {
		c, err := stream.DialKernel(w.cfg.Addr, &w.k)
		if err == nil {
			return c, nil
		}
		wait, end := w.k.Refused(err)
		switch {
		case end != nil:
			return nil, end
		case wait:
			if errors.Is(err, stream.ErrGap) {
				w.origin = fmt.Sprintf("broker snapshot is past the feed's retention: cold start (%v)", err)
			}
			fails, backoff = 0, 50*time.Millisecond // the broker answers
			time.Sleep(heldPoll)
			continue
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
	w.ingest(nil)
	w.signal(c)
}

// ingest applies evs to the pipeline, which then ends at the kernel's
// applied sequence.
func (w *Worker) ingest(evs []osn.Event) {
	if a := w.k.Applied(); a > w.p.Seq() || len(evs) > 0 {
		w.p.Ingest(detector.Batch{Events: evs, LastSeq: a})
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
		_, _, retired := w.k.Retired()
		switch {
		case w.killed.Load():
			w.err = err
		case retired:
			// The pipeline ends at the record: save the cut the new
			// workers adopt. The kernel acks nothing past it.
			w.save(c)
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
			w.k.Batch(c, nil)
			w.ingest(nil)
			if errors.Is(err, stream.ErrClosed) {
				// A broker that ended the feed is closing: it takes no
				// more offers and keeps nothing more for this session.
				c.Ack(w.p.Seq())
			} else {
				w.save(c)
			}
		default:
			// Connection lost: save, then resume where the kernel says.
			c.Close()
			w.save(nil)
			w.k.Lost(c.LastSeq())
			if c, err = w.connect(); err != nil {
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
// the kernel says one is due, or until the kernel retires the worker at
// a cutover record, when it returns nil: the pipeline then ends at the
// record's sequence, the barrier, and nothing past it is applied. With
// Handoff a batch may be empty: a partitioned feed's cursor advance past
// a foreign run, which pins the pipeline and runs the save interval like
// any batch, so a long foreign run is offered and acked.
func (w *Worker) drain(c *stream.Client) error {
	for {
		evs, err := c.RecvBatch()
		if err != nil {
			return err
		}
		before := w.k.Applied()
		drop, n, ok := w.k.Batch(c, evs)
		if !ok {
			continue
		}
		w.audit(c, evs, drop, n)
		w.ingest(evs[drop:n])
		w.stats.Events += n - drop
		if n > 0 {
			w.stats.Batches++
		}
		if _, _, retired := w.k.Retired(); retired {
			return nil
		}
		if e := w.cfg.saveEvery; w.k.Due(time.Now()) || e > 0 && before/e != w.k.Applied()/e {
			w.save(c)
		}
	}
}

// audit notes the sequences of evs[drop:n], the events of c's last
// batch that the pipeline applies: the first one, and with Config.audit
// every owned-actor event's.
func (w *Worker) audit(c *stream.Client, evs []osn.Event, drop, n int) {
	seq := func(i int) uint64 {
		if seqs := c.LastBatchSeqs(); seqs != nil {
			return seqs[i]
		}
		return c.LastSeq() - uint64(len(evs)-1-i)
	}
	if drop < n && w.firstApplied.Load() == 0 {
		w.firstApplied.Store(seq(drop))
	}
	for i := drop; i < n && w.cfg.audit; i++ {
		if osn.Partition(evs[i].Actor, w.cfg.Parts) == w.cfg.Part {
			w.ownedSeqs = append(w.ownedSeqs, seq(i))
		}
	}
}

// save cuts a snapshot and, when the kernel offers it, offers it to the
// broker; once the broker confirms it, the feed is acked through it on
// c (when c is non-nil). A failure is not fatal: the broker's previous
// offer (or the spool) keeps recovery possible. Kill is a crash: once
// it has landed, a save in progress keeps nothing more.
func (w *Worker) save(c *stream.Client) {
	if !w.k.Save(time.Now()) || w.killed.Load() {
		return
	}
	snap := w.p.Snapshot()
	// A failed offer is not logged: a broker that is down refuses the
	// save before the resume. Stats counts the successes.
	data, err := json.Marshal(snap)
	if err == nil && !w.killed.Load() && stream.OfferSnapshot(w.cfg.Addr, w.c.Session(), w.cfg.Part, max(w.cfg.Parts, 1), snap.Seq, data) == nil {
		w.k.Offered(snap.Seq)
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
func (w *Worker) Rebalanced() (barrier uint64, nparts int, ok bool) { return w.k.Retired() }
