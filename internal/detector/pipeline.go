package detector

import (
	"sync"

	"sybilwild/internal/features"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/paged"
	"sybilwild/internal/sim"
)

// Pipeline is the real-time detector: it keeps per-account feature
// state from a live event feed and evaluates the rule each time an
// account sends a friend request — the earliest signal there is, since
// it needs no response from the recipient — plus what a deployed
// worker needs around it: batch ingestion stamped with stream
// sequences, a cluster partition gate, a reconstructed friendship
// graph, and consistent snapshots (snapshot.go).
//
// It is synchronous. Ingest applies each event, in feed order, on the
// caller's goroutine: grow the graph, update the counters, evaluate
// the sender if due, record the flag and fire the hook — then the next
// event. A verdict therefore depends only on the events that precede
// its trigger in the feed, never on how the feed was chunked or
// scheduled. Before it applies a batch, Ingest runs a warm pass over
// it that only reads the state the batch will touch, so the batch's
// cache misses overlap; it writes nothing, so it cannot move a
// verdict either. Scale-out is by partition: K pipelines, each
// WithPartition(i, K) and fed its osn.PartitionDelivers slice, flag in
// union exactly what one unpartitioned pipeline flags.
//
// Account IDs are assumed dense from 0, as the OSN assigns them: they
// index the per-account state directly, in pages of paged.PageSize
// accounts allocated on first touch. An ID far from every other one is
// accepted (negative ones are skipped) but costs a whole page per
// slab — ~57 KB of counters for each of the event's two accounts and
// 8 KB of evaluation state — plus 8 directory bytes per slab for every
// 1024 IDs below it (16 MB near MaxInt32), so a feed of sparse IDs
// costs some 500× what it would in a map. Under
// WithGraphReconstruction the graph's node range reaches the highest
// ID as well.
//
// One mutex guards all state, so every method is safe to call from any
// goroutine at any time. Each production caller is a single consumer
// loop and never contends on it.
type Pipeline struct {
	c          Classifier
	ccGate     CCGated // c when it implements CCGated, else nil
	checkEvery int
	onFlag     func(Flag)

	// Cluster partition (WithPartition): the pipeline evaluates and
	// flags only accounts it owns (osn.Partition(actor, parts) == part)
	// while still applying every delivered event to its counters —
	// support events from foreign partitions (replicated accepts,
	// target-routed requests) feed owned accounts' features without
	// granting this worker verdict authority over their actors.
	// parts == 0 means unpartitioned: evaluate everyone.
	part  int
	parts int

	// ownGraph (WithGraphReconstruction): g is the pipeline's own graph,
	// grown from the events it ingests. Otherwise g is the caller's and
	// must not be mutated while the pipeline runs.
	ownGraph bool

	mu sync.Mutex
	g  *graph.Graph
	tr *features.Tracker
	// eval is the per-account evaluation bookkeeping, indexed by account
	// ID like the tracker's counters beside it (and paged the same way).
	eval    paged.Slab[evalState]
	flagged map[osn.AccountID]Flag
	// skipped counts friend events dropped for a negative account ID.
	skipped int
	// lastSeq is the highest stream sequence stamped by a sequenced
	// Ingest (Batch.LastSeq set).
	lastSeq uint64
	// warmSum accumulates what warm loads; nothing reads it.
	warmSum int
	closed  bool
}

// evalState is one account's position in the evaluation schedule.
type evalState struct {
	seen    uint32 // requests seen; evaluation is due every checkEvery-th
	flagged bool   // verdict already emitted
}

// Flag is one detection verdict: which account, when, and the feature
// vector that crossed the thresholds.
type Flag struct {
	ID     osn.AccountID
	At     sim.Time
	Vector features.Vector
}

// Batch is one unit of ingestion: a slice of events in stream order,
// optionally stamped with the global stream sequence of its last event
// (stream.Client.LastSeq after RecvBatch). A zero LastSeq means
// unsequenced — replayed logs, tests, simulation feeds.
type Batch struct {
	Events []osn.Event
	// LastSeq, when non-zero, records that Events end at this global
	// stream sequence. The pipeline remembers the highest sequence
	// applied so Snapshot can stamp its cut, which is what turns a
	// checkpoint plus the feed's resume-from-sequence into exactly-once
	// crash recovery. Sequenced batches must come from a single
	// goroutine, in order — the stamp is only meaningful for one feed.
	LastSeq uint64
}

// PipelineOption configures NewPipeline.
type PipelineOption func(*Pipeline)

// WithShards is ignored.
//
// Deprecated: the pipeline no longer shards in-process; scale out with
// WithPartition workers. The option survives only because benchmark/
// still passes it, and is deleted together with those call sites by the
// next benchmark PR. Nothing in the root module may call it.
func WithShards(int) PipelineOption {
	return func(*Pipeline) {}
}

// NewMonitor builds a pipeline over g whose hook reports the flagged
// account and the time of its triggering request to onFlag (non-nil).
//
// Deprecated: the serial Monitor is gone; use NewPipeline, WithFlagHook
// and Observe. The constructor survives only because benchmark/ still
// calls it, and is deleted together with that call site. No non-test
// code in the root module may call it.
func NewMonitor(c Classifier, g *graph.Graph, onFlag func(osn.AccountID, sim.Time)) *Pipeline {
	return NewPipeline(c, g, WithFlagHook(func(f Flag) { onFlag(f.ID, f.At) }))
}

// WithCheckEvery evaluates an account every n-th request it sends
// (values < 1 normalize to 1, every request).
func WithCheckEvery(n int) PipelineOption {
	return func(p *Pipeline) { p.checkEvery = n }
}

// WithFlagHook installs fn, called exactly once per flagged account, on
// the ingesting goroutine, before the Ingest call that carried the
// triggering request returns (and before any later event is applied).
// The hook runs with the pipeline's lock held, so it must not call back
// into the pipeline — and acting on a network the pipeline observes
// does, because the network delivers the resulting event to Observe.
// To act on the network, have the hook record the flag and apply it
// from an observer registered after Observe, as
// TestMonitorOnLiveCampaign's ban action does.
func WithFlagHook(fn func(Flag)) PipelineOption {
	return func(p *Pipeline) { p.onFlag = fn }
}

// WithPartition restricts the pipeline's verdict authority to one
// account partition of a detection cluster: only accounts with
// osn.Partition(id, parts) == part are evaluated and flagged. Every
// ingested event still updates counters — a partitioned feed
// (stream.WithPartition) delivers exactly the owned slice plus the
// cross-partition support events the owned accounts' features need,
// and gating evaluation (not ingestion) on ownership is what makes
// the union of K partitioned workers' flag sets equal a single
// unpartitioned run. parts <= 1 means the full feed (unpartitioned).
func WithPartition(part, parts int) PipelineOption {
	return func(p *Pipeline) {
		p.part, p.parts = part, parts
		if p.parts <= 1 {
			p.part, p.parts = 0, 0
		}
	}
}

// WithGraphReconstruction has the pipeline build its own friendship
// graph from the accept and friendship events it observes, the way
// detectd reconstructs Renren's store from the feed. The graph argument
// to NewPipeline is ignored and may be nil.
func WithGraphReconstruction() PipelineOption {
	return func(p *Pipeline) { p.ownGraph = true }
}

// NewPipeline builds a pipeline classifying with c over friendship
// graph g. Wire Ingest to an event source (e.g. stream.SubscribeBatch)
// and Close when the stream ends.
func NewPipeline(c Classifier, g *graph.Graph, opts ...PipelineOption) *Pipeline {
	p := &Pipeline{c: c, g: g, checkEvery: 1}
	p.configure(opts)
	if p.parts > 0 && (p.part < 0 || p.part >= p.parts) {
		panic("detector: WithPartition part out of range")
	}
	if p.ownGraph {
		p.g = graph.New(0)
	}
	if p.g == nil {
		panic("detector: NewPipeline needs a graph unless WithGraphReconstruction is set")
	}
	p.tr = features.NewTracker(p.g)
	return p
}

// configure applies opts over the defaults the constructor filled in.
func (p *Pipeline) configure(opts []PipelineOption) {
	for _, o := range opts {
		o(p)
	}
	if p.checkEvery < 1 {
		p.checkEvery = 1
	}
	p.ccGate, _ = p.c.(CCGated)
	p.flagged = make(map[osn.AccountID]Flag)
}

// Ingest applies one wire batch — e.g. one feed batch from
// stream.Client.RecvBatch or a chunk of a replayed historical log —
// event by event, in order, on the caller's goroutine, each window of
// up to warmWindow events after a read-only warm pass over it. When it
// returns every event is applied, every verdict the batch triggered is
// recorded and its hook has fired. Chunking does not matter: feeding
// the same stream as one batch or one event at a time flags the same
// set with the same vectors. Safe to call from many goroutines (they serialize
// on the pipeline's lock; the interleaving is then the feed order); see
// Batch.LastSeq for the sequenced contract. Ingest after Close panics.
func (p *Pipeline) Ingest(b Batch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("detector: Ingest after Close")
	}
	for lo := 0; lo < len(b.Events); lo += warmWindow {
		evs := b.Events[lo:min(lo+warmWindow, len(b.Events))]
		p.warm(evs)
		for i := range evs {
			p.apply(&evs[i])
		}
	}
	if b.LastSeq > p.lastSeq {
		p.lastSeq = b.LastSeq
	}
}

// Observe applies one event, as a one-event Ingest: wire it to a live
// network with net.RegisterObserver(p.Observe). Observe after Close
// panics.
func (p *Pipeline) Observe(ev osn.Event) {
	p.Ingest(Batch{Events: []osn.Event{ev}})
}

// warmWindow is how many events warm reads ahead of apply: one wire
// batch (stream.DefaultMaxBatch). A longer batch — a replayed log in
// one call — is taken a window at a time, so that what warm loaded is
// still in cache when apply reaches it.
const warmWindow = 256

// warm is Ingest's first pass over a window of events. It loads the
// state the events are about to touch — for each friend request or
// accept both endpoints' counters, for a request the actor's
// evaluation record, for an accept under WithGraphReconstruction both
// adjacency headers with the first and last edge of each list — so
// that the window's cache misses overlap instead of each stalling its
// own event in apply. It only reads: it allocates no page, grows
// nothing and writes no state, so apply sees exactly the state it would
// have seen without it. The loads are summed into p.warmSum only so
// that the compiler keeps them. Caller holds p.mu.
func (p *Pipeline) warm(evs []osn.Event) {
	sum := 0
	for i := range evs {
		ev := &evs[i]
		if ev.Actor < 0 || ev.Target < 0 {
			continue
		}
		switch ev.Type {
		case osn.EvFriendRequest:
			if st := p.eval.Peek(int(ev.Actor)); st != nil {
				sum += int(st.seen)
			}
		case osn.EvFriendAccept:
			if p.ownGraph {
				sum += peekAdjacency(p.g, ev.Actor) + peekAdjacency(p.g, ev.Target)
			}
		default:
			continue
		}
		sum += p.tr.Peek(ev.Actor) + p.tr.Peek(ev.Target)
	}
	p.warmSum += sum
}

// peekAdjacency loads id's adjacency header and the first and last edge
// of its list — where HasEdge starts its scan and AddEdge appends — and
// returns a value derived from them. An id the graph has not grown to
// yet reads nothing.
func peekAdjacency(g *graph.Graph, id osn.AccountID) int {
	if int(id) >= g.NumNodes() {
		return 0
	}
	es := g.Neighbors(id)
	if len(es) == 0 {
		return 0
	}
	return int(es[0].To) + int(es[len(es)-1].To)
}

// apply is Ingest's second pass, one event at a time: it folds ev into
// the state and judges its sender if due — the admission gate, graph
// reconstruction, the counters, the partition gate, the check cadence
// and the rule. ev points into the batch: an event passed by value is
// spilled to the stack field by field and copied on with 16-byte loads
// that the store buffer cannot forward, so each event would wait for
// the previous one's stores, cache misses included, to drain. Caller
// holds p.mu.
func (p *Pipeline) apply(ev *osn.Event) {
	if !admits(ev, &p.skipped) {
		return
	}
	if p.ownGraph {
		// Grow the graph before the counters so an evaluation never sees
		// counters ahead of the graph — and, since evaluation follows
		// immediately, never a graph ahead of the counters either.
		if grow := int(max(ev.Actor, ev.Target)) + 1 - p.g.NumNodes(); grow > 0 {
			p.g.AddNodes(grow)
		}
		// Past admits, anything but a request is an edge: an accept or
		// a friendship.
		if ev.Type != osn.EvFriendRequest && ev.Actor != ev.Target {
			p.g.AddEdge(ev.Actor, ev.Target, ev.At)
		}
	}
	p.tr.Update(*ev)
	if ev.Type != osn.EvFriendRequest {
		return
	}
	if p.parts > 0 && osn.Partition(ev.Actor, p.parts) != p.part {
		// Support event: its counter updates feed owned accounts'
		// features, but the actor belongs to another partition, whose
		// worker holds sole verdict authority over it.
		return
	}
	st := p.eval.At(int(ev.Actor))
	if st.flagged {
		return
	}
	st.seen++
	if int(st.seen)%p.checkEvery != 0 {
		return
	}
	v := p.tr.CountsOf(ev.Actor)
	// Lazy CC: when the classifier can tell from the counter features
	// alone that the (conjunctive) rule cannot fire, skip the
	// clustering-coefficient walk — by the CCGated contract the verdict
	// is unchanged, and the CC walk is the single most expensive step
	// on the hot path.
	if p.ccGate == nil || p.ccGate.NeedsCC(v) {
		p.tr.FillCC(&v)
	}
	if !p.c.Classify(v) {
		return
	}
	st.flagged = true
	f := Flag{ID: ev.Actor, At: ev.At, Vector: v}
	p.flagged[ev.Actor] = f
	if p.onFlag != nil {
		p.onFlag(f)
	}
}

// Close marks the end of the stream: a later Ingest panics. The
// pipeline holds no goroutines or other resources, and every query
// method keeps working. Close is idempotent.
func (p *Pipeline) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// Seq returns the highest stream sequence applied via sequenced Ingest
// batches (zero if the pipeline has only seen unsequenced events).
func (p *Pipeline) Seq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSeq
}

// FlaggedCount returns the number of flagged accounts so far.
func (p *Pipeline) FlaggedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.flagged)
}

// FlaggedIDs returns all flagged accounts (order unspecified).
func (p *Pipeline) FlaggedIDs() []osn.AccountID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]osn.AccountID, 0, len(p.flagged))
	for id := range p.flagged {
		out = append(out, id)
	}
	return out
}

// Flags returns the full verdicts (order unspecified).
func (p *Pipeline) Flags() []Flag {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Flag, 0, len(p.flagged))
	for _, f := range p.flagged {
		out = append(out, f)
	}
	return out
}

// Skipped returns the number of friend requests, accepts and
// friendships dropped, before touching any state, because their Actor
// or Target was negative (see admits).
func (p *Pipeline) Skipped() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.skipped
}

// Tracked returns the number of accounts with observed activity.
func (p *Pipeline) Tracked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tr.Tracked()
}

// Graph exposes the pipeline's graph — the reconstructed one under
// WithGraphReconstruction, otherwise the caller's. A reconstructed
// graph is mutated by Ingest: read it only while no Ingest is running.
func (p *Pipeline) Graph() *graph.Graph {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.g
}
