// Package cluster runs a partitioned detection cluster against one
// feed broker: K workers, each subscribing to one account partition of
// the feed (stream.WithPartition) and holding verdict authority over
// exactly that partition's accounts (detector.WithPartition). The
// union of the workers' flag sets equals a single unpartitioned
// detector run over the same feed — the broker delivers each worker
// its owned actor slice plus the cross-partition support events its
// accounts' features need (osn.PartitionDelivers), and evaluation
// ownership keeps verdicts exactly-once across the cluster.
//
// Workers periodically offer serialized pipeline snapshots to the
// broker's rendezvous store (stream.OfferSnapshot); a replacement
// worker started with Handoff adopts the freshest snapshot for its
// partition and resumes the feed from the snapshot's stamped sequence
// + 1 — state migration over the wire instead of replaying the
// partition's history from the spool. Cold starts (no snapshot
// offered) backfill from sequence 1, which the broker's spool must
// retain.
//
// A Worker is a deliberately small harness: one subscription, one
// pipeline, no transparent reconnect — when its connection dies the
// worker stops and reports the error, and the operator (or a test)
// starts a replacement. Reconnect policy lives in callers like
// cmd/detectd, not here.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/stream"
)

// Config describes one cluster worker.
type Config struct {
	Addr        string // broker address
	Part, Parts int    // this worker's account partition

	Rule       detector.Rule
	CheckEvery int // evaluate every Nth request (0: every request)

	// SnapshotEvery offers a serialized pipeline snapshot to the
	// broker's rendezvous every N ingested batches (0: never offer).
	SnapshotEvery int

	// Handoff makes Start fetch the partition's freshest broker
	// snapshot and adopt it — counters, graph, verdicts and stream
	// position — before subscribing. Without it (or when no snapshot
	// is offered) the worker cold-starts from sequence 1.
	Handoff bool

	// SessionID fixes the worker's subscriber session id. A promoted
	// standby must dial with the id it claimed the partition for
	// (stream.ClaimPartition), or the broker refuses it the key.
	// Empty: a random id.
	SessionID string

	// Audit records the global sequence of every owned-actor event the
	// worker applies (after replay trimming), for cutover audits: the
	// union of the cluster's audits must cover each sequence exactly
	// once across generations. Costs memory linear in owned events —
	// tests and verification runs only.
	Audit bool
}

// Worker is one partition's detector: a partitioned feed subscription
// draining into a partition-gated pipeline, with periodic snapshot
// offers. Start it with Start; stop it by closing the broker's feed
// (clean end) or Kill (simulated crash), then Wait.
type Worker struct {
	cfg Config
	p   *detector.Pipeline
	c   *stream.Client

	handoffSeq  uint64 // snapshot sequence adopted at start (0: cold start)
	resumedFrom uint64 // feed sequence the subscription started at

	offered      atomic.Uint64 // highest sequence successfully offered
	firstApplied atomic.Uint64 // lowest global sequence ingested (0: none yet)

	// Live-rebalance retirement; set by the loop before done closes,
	// read after Wait.
	rebalanced bool
	rebBarrier uint64
	rebNew     int

	ownedSeqs []uint64 // Audit: applied owned-actor sequences, in order

	err       error // terminal loop error; read after done closes
	done      chan struct{}
	closeOnce sync.Once
}

// Start builds the worker's pipeline (adopting a broker snapshot when
// Handoff is set and one is offered), subscribes to its partition of
// the feed, and begins ingesting in a background goroutine.
func Start(cfg Config) (*Worker, error) {
	if cfg.Parts < 1 || cfg.Part < 0 || cfg.Part >= cfg.Parts {
		return nil, fmt.Errorf("cluster: invalid partition %d/%d", cfg.Part, cfg.Parts)
	}
	opts := []detector.PipelineOption{
		detector.WithGraphReconstruction(),
		detector.WithPartition(cfg.Part, cfg.Parts),
	}
	if cfg.CheckEvery > 0 {
		opts = append(opts, detector.WithCheckEvery(cfg.CheckEvery))
	}
	w := &Worker{cfg: cfg, done: make(chan struct{})}
	resume := uint64(1)
	if cfg.Handoff {
		seq, data, err := stream.FetchSnapshot(cfg.Addr, cfg.Part, cfg.Parts)
		switch {
		case err == nil:
			var snap detector.PipelineSnapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				return nil, fmt.Errorf("cluster: decode broker snapshot: %w", err)
			}
			p, from, err := detector.NewPipelineFromSnapshot(cfg.Rule, nil, &snap, opts...)
			if err != nil {
				return nil, fmt.Errorf("cluster: adopt broker snapshot: %w", err)
			}
			w.p, resume, w.handoffSeq = p, from, seq
		case errors.Is(err, stream.ErrNoSnapshot):
			// Nothing offered yet: cold start below.
		default:
			return nil, err
		}
	}
	if w.p == nil {
		w.p = detector.NewPipeline(cfg.Rule, nil, opts...)
	}
	w.resumedFrom = resume
	dialOpts := []stream.DialOption{stream.WithPartition(cfg.Part, cfg.Parts)}
	if cfg.SessionID != "" {
		dialOpts = append(dialOpts, stream.WithSessionID(cfg.SessionID))
	}
	c, err := stream.DialFrom(cfg.Addr, resume, dialOpts...)
	if err != nil {
		w.p.Close()
		return nil, err
	}
	w.c = c
	go w.loop()
	return w, nil
}

// loop drains the partitioned subscription into the pipeline until the
// feed ends (clean) or the connection dies (error), offering snapshots
// on the configured cadence. Runs on its own goroutine; the inline
// Snapshot call satisfies the pipeline's quiescence contract because
// this goroutine is the only ingester.
func (w *Worker) loop() {
	defer close(w.done)
	batches := 0
	for {
		evs, err := w.c.RecvBatch()
		if errors.Is(err, stream.ErrRebalanced) {
			// The broker retired this worker's group shape in a live
			// rebalance. Everything owed below the barrier has been
			// applied; pin the pipeline's cursor to the barrier (the
			// tail may have been all foreign) and offer the snapshot
			// the coordinator is waiting for. Retirement is a clean
			// exit, not an error.
			barrier, nparts, _ := w.c.Rebalanced()
			if barrier > w.p.Seq() {
				w.p.Ingest(detector.Batch{LastSeq: barrier})
			}
			w.offer()
			w.rebalanced, w.rebBarrier, w.rebNew = true, barrier, nparts
			return
		}
		if err != nil {
			if !errors.Is(err, stream.ErrClosed) {
				w.err = err
			}
			return
		}
		last := w.c.LastSeq()
		if last <= w.p.Seq() {
			continue
		}
		// Trim any replayed prefix at or below the pipeline's own
		// position. Partitioned frames are sparse in the global order,
		// so the trim walks per-event sequences, not arithmetic.
		seqs := w.c.LastBatchSeqs()
		if seqs != nil {
			drop := 0
			for drop < len(seqs) && seqs[drop] <= w.p.Seq() {
				drop++
			}
			evs, seqs = evs[drop:], seqs[drop:]
		} else if first := last - uint64(len(evs)) + 1; first <= w.p.Seq() {
			evs = evs[w.p.Seq()-first+1:]
		}
		if len(evs) > 0 && w.firstApplied.Load() == 0 {
			first := last - uint64(len(evs)) + 1
			if seqs != nil {
				first = seqs[0]
			}
			w.firstApplied.Store(first)
		}
		if w.cfg.Audit {
			first := last - uint64(len(evs)) + 1
			for i, ev := range evs {
				if osn.Partition(ev.Actor, w.cfg.Parts) != w.cfg.Part {
					continue
				}
				if seqs != nil {
					w.ownedSeqs = append(w.ownedSeqs, seqs[i])
				} else {
					w.ownedSeqs = append(w.ownedSeqs, first+uint64(i))
				}
			}
		}
		w.p.Ingest(detector.Batch{Events: evs, LastSeq: last})
		batches++
		if w.cfg.SnapshotEvery > 0 && batches%w.cfg.SnapshotEvery == 0 {
			w.offer()
		}
	}
}

// offer snapshots the pipeline and publishes it to the broker's
// rendezvous. Best-effort: a failed offer costs nothing but handoff
// freshness (the previous offer, or the spool, still covers recovery).
func (w *Worker) offer() {
	snap := w.p.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		return
	}
	if stream.OfferSnapshot(w.cfg.Addr, w.cfg.Part, w.cfg.Parts, snap.Seq, data) == nil {
		w.offered.Store(snap.Seq)
	}
}

// Kill severs the worker's feed connection without a final snapshot
// offer — a simulated crash. The ingest loop exits with the connection
// error; Wait returns it.
func (w *Worker) Kill() { w.c.Kick() }

// Wait blocks until the ingest loop has stopped, closes the pipeline,
// and returns the loop's terminal error (nil on clean end of feed).
// Idempotent.
func (w *Worker) Wait() error {
	<-w.done
	w.closeOnce.Do(func() {
		w.c.Close()
		w.p.Close()
	})
	return w.err
}

// Pipeline exposes the worker's detector. Flag queries are safe at any
// time; Tracked/Graph only after Wait.
func (w *Worker) Pipeline() *detector.Pipeline { return w.p }

// ResumedFrom returns the feed sequence the worker's subscription
// started at: 1 on a cold start, snapshot sequence + 1 after a
// handoff.
func (w *Worker) ResumedFrom() uint64 { return w.resumedFrom }

// HandoffSeq returns the stamped sequence of the broker snapshot the
// worker adopted at start, or 0 for a cold start.
func (w *Worker) HandoffSeq() uint64 { return w.handoffSeq }

// OfferedSeq returns the highest snapshot sequence this worker has
// successfully offered to the broker (0: none yet).
func (w *Worker) OfferedSeq() uint64 { return w.offered.Load() }

// FirstApplied returns the lowest global feed sequence the worker has
// ingested, 0 when nothing has been applied yet. After a handoff it
// must exceed HandoffSeq — the zero-replay property: no event at or
// below the snapshot's cut is ever re-applied.
func (w *Worker) FirstApplied() uint64 { return w.firstApplied.Load() }

// Rebalanced reports whether the worker was retired by a live
// rebalance, and if so the cutover barrier (its pipeline's final
// sequence) and the new partition group size. Valid after Wait.
func (w *Worker) Rebalanced() (barrier uint64, nparts int, ok bool) {
	return w.rebBarrier, w.rebNew, w.rebalanced
}

// OwnedSeqs returns the global sequences of every owned-actor event
// this worker applied, in feed order — the per-event owner audit a
// cutover verification sums across workers and generations. Requires
// Config.Audit; valid after Wait.
func (w *Worker) OwnedSeqs() []uint64 { return w.ownedSeqs }
