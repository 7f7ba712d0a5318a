package detector

import (
	"fmt"
	"sort"

	"sybilwild/internal/features"
	"sybilwild/internal/graph"
)

// This file is the durability layer of the Pipeline: consistent
// snapshots and restore (NewPipelineFromSnapshot). The serialized form
// is a flat account list, which is what lets RebalanceSnapshots re-key
// a cluster's snapshots into a different partition count.
//
// Snapshot takes the pipeline's one lock, so it cuts between two
// events of whatever Ingest calls surround it; a single-goroutine
// consumer loop, like cmd/detectd's, just calls it inline between
// batches so the cut lands on a batch (and stream-sequence) boundary.

// SnapshotVersion identifies the PipelineSnapshot schema. Bump it on
// any incompatible change so a restore of an old checkpoint fails
// loudly instead of misreading counters.
const SnapshotVersion = 1

// AccountSnapshot is one account's complete detector state: its
// behavioural counters plus the check-cadence position (how many of
// its requests have been seen, mod CheckEvery evaluation is due).
// Verdicts live separately in PipelineSnapshot.Flags.
type AccountSnapshot struct {
	State features.AccountState `json:"state"`
	Seen  int                   `json:"seen,omitempty"`
}

// PipelineSnapshot is a consistent, serializable image of a running
// Pipeline, stamped with the highest stream sequence applied before
// the cut. Restoring it and resuming the feed from Seq+1 reproduces
// the uninterrupted run exactly. (Checkpoints written before in-process
// sharding was removed also carry a "shards" key; it is ignored.)
type PipelineSnapshot struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	// Part/Parts record the cluster partition the pipeline evaluated
	// (WithPartition); zero Parts means an unpartitioned run. A
	// snapshot is only restorable into the same partition — its
	// counters cover exactly that slice of the feed.
	Part       int               `json:"part,omitempty"`
	Parts      int               `json:"parts,omitempty"`
	CheckEvery int               `json:"check_every"`
	Accounts   []AccountSnapshot `json:"accounts"`
	Flags      []Flag            `json:"flags,omitempty"`
	// Graph is non-nil exactly when the pipeline owns a reconstructed
	// graph (WithGraphReconstruction); a caller-provided static graph
	// is the caller's to keep.
	Graph *graph.Snapshot `json:"graph,omitempty"`
}

// Snapshot serializes the pipeline's complete state at a consistent
// point: per-account counters, check-cadence positions, verdicts, the
// reconstructed graph when the pipeline owns one, and the highest
// stream sequence applied. Every verdict it contains has already had
// its hook fired (hooks fire inside Ingest), so a checkpointer may
// persist and acknowledge it — restore deliberately does not re-fire
// hooks. The pipeline keeps running afterwards.
func (p *Pipeline) Snapshot() *PipelineSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := &PipelineSnapshot{
		Version:    SnapshotVersion,
		Seq:        p.lastSeq,
		Part:       p.part,
		Parts:      p.parts,
		CheckEvery: p.checkEvery,
	}
	// Deterministic order (Export walks accounts in ID order, flags are
	// sorted below): checkpoint files for identical states are
	// byte-identical, so equivalence tests (and operators) can diff them.
	states := p.tr.Export()
	snap.Accounts = make([]AccountSnapshot, len(states))
	for i, st := range states {
		snap.Accounts[i].State = st
		if es := p.eval.Peek(int(st.ID)); es != nil {
			snap.Accounts[i].Seen = int(es.seen)
		}
	}
	snap.Flags = make([]Flag, 0, len(p.flagged))
	for _, f := range p.flagged {
		snap.Flags = append(snap.Flags, f)
	}
	sort.Slice(snap.Flags, func(i, j int) bool { return snap.Flags[i].ID < snap.Flags[j].ID })
	if p.ownGraph {
		gs := p.g.Snapshot()
		snap.Graph = &gs
	}
	return snap
}

// NewPipelineFromSnapshot rebuilds a live pipeline from a snapshot and
// returns the stream sequence to resume the feed from (snapshot
// sequence + 1, where the feed resumes after a handshake that adopted
// the snapshot, stream.DialKernel). The check cadence defaults to the
// snapshot's and an option may override it; the flag
// hook must be re-installed here since hooks don't serialize. The
// cluster partition is not overridable: the restored pipeline
// evaluates the snapshot's Part/Parts slice, and a WithPartition option
// naming any other partition is an error. Restored flags do not
// re-fire the hook. Whether the pipeline owns its graph follows the
// snapshot: a snapshot with a graph restores into reconstruction mode
// (the g argument is ignored), one without needs the same static graph
// the original run used.
func NewPipelineFromSnapshot(c Classifier, g *graph.Graph, snap *PipelineSnapshot, opts ...PipelineOption) (*Pipeline, uint64, error) {
	if snap.Version != SnapshotVersion {
		return nil, 0, fmt.Errorf("detector: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	p := &Pipeline{
		c:          c,
		g:          g,
		checkEvery: snap.CheckEvery,
		part:       snap.Part,
		parts:      snap.Parts,
		lastSeq:    snap.Seq,
	}
	p.configure(opts)
	if p.part != snap.Part || p.parts != snap.Parts {
		// The snapshot's counters cover exactly one slice of the feed;
		// adopting them under any other partition would evaluate
		// accounts from half-seen state. Restores inherit the
		// snapshot's partition — a WithPartition override may only
		// restate it.
		return nil, 0, fmt.Errorf("detector: snapshot is for partition %d/%d, restore asked for %d/%d",
			snap.Part, snap.Parts, p.part, p.parts)
	}
	p.ownGraph = snap.Graph != nil
	if p.ownGraph {
		rg, err := graph.FromSnapshot(*snap.Graph)
		if err != nil {
			return nil, 0, fmt.Errorf("detector: restore graph: %w", err)
		}
		p.g = rg
	} else if p.g == nil {
		return nil, 0, fmt.Errorf("detector: snapshot has no graph; pass the static graph the original run used")
	}
	p.tr = features.NewTracker(p.g)

	states := make([]features.AccountState, len(snap.Accounts))
	for i, a := range snap.Accounts {
		states[i] = a.State
	}
	if err := p.tr.Import(states); err != nil {
		return nil, 0, fmt.Errorf("detector: restore: %w", err)
	}
	// Import has validated every account ID by now.
	for _, a := range snap.Accounts {
		if a.Seen != 0 {
			p.eval.At(int(a.State.ID)).seen = uint32(a.Seen)
		}
	}
	for _, f := range snap.Flags {
		if f.ID < 0 {
			return nil, 0, fmt.Errorf("detector: restore: flag for negative account id %d", f.ID)
		}
		if _, dup := p.flagged[f.ID]; dup {
			return nil, 0, fmt.Errorf("detector: restore: duplicate flag for account %d", f.ID)
		}
		p.flagged[f.ID] = f
		p.eval.At(int(f.ID)).flagged = true
	}
	return p, snap.Seq + 1, nil
}
