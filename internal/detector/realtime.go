package detector

import (
	"sybilwild/internal/features"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// Classifier is anything that can judge a feature vector; both Rule
// and *Adaptive satisfy it.
type Classifier interface {
	Classify(features.Vector) bool
}

// CCGated is optionally implemented by classifiers whose verdict can
// be decided without the clustering coefficient for some vectors.
// NeedsCC is called with a vector whose CC field is not yet filled in
// (zero); returning false is a promise that Classify yields the same
// verdict for every possible CC value, which lets the detectors skip
// the CC computation — a walk over the account's first-50-friends
// adjacency, by far the most expensive feature — entirely for that
// evaluation. Rule satisfies it: the rule is a conjunction, so once a
// counter-derived term fails the verdict is false regardless of CC.
type CCGated interface {
	NeedsCC(features.Vector) bool
}

// Monitor is the real-time pipeline: it observes a live event stream,
// keeps per-account feature state, and re-evaluates an account's
// classification each time that account sends a friend request. When
// an account is flagged, OnFlag fires (the production deployment's
// action was a ban).
//
// Monitor deliberately evaluates only on EvFriendRequest: that is the
// earliest signal available (no recipient response needed), matching
// the paper's emphasis on detection "without significant delays".
//
// Like Pipeline, Monitor assumes account IDs dense from 0: its
// Tracker's counters are indexed by ID in pages, so an ID far from the
// rest costs a ~57 KB page (see Pipeline for the full accounting).
type Monitor struct {
	C       Classifier
	Tracker *features.Tracker
	// OnFlag is called at most once per account, with the event time.
	OnFlag func(osn.AccountID, sim.Time)
	// CheckEvery evaluates an account every n-th request it sends
	// (1 = every request). Higher values trade latency for CPU.
	CheckEvery int

	flagged map[osn.AccountID]bool
	seen    map[osn.AccountID]int
	skipped int
}

// admits is the one gate in front of detector state, shared by Monitor
// and Pipeline: it passes friend requests and accepts — no feature in
// §2.2 consumes the rest of the log — unless their Actor or Target is
// negative. Account IDs index that state directly and the wire decodes
// any int32, so such an event is dropped here, before it touches
// anything, and counted in *skipped.
func admits(ev osn.Event, skipped *int) bool {
	if ev.Type != osn.EvFriendRequest && ev.Type != osn.EvFriendAccept {
		return false
	}
	if ev.Actor < 0 || ev.Target < 0 {
		*skipped++
		return false
	}
	return true
}

// NewMonitor builds a monitor over the given friendship graph.
func NewMonitor(c Classifier, g *graph.Graph, onFlag func(osn.AccountID, sim.Time)) *Monitor {
	return &Monitor{
		C:          c,
		Tracker:    features.NewTracker(g),
		OnFlag:     onFlag,
		CheckEvery: 1,
		flagged:    make(map[osn.AccountID]bool),
		seen:       make(map[osn.AccountID]int),
	}
}

// Observe folds one event in and evaluates the sender if due. Wire it
// to a live network with net.RegisterObserver(m.Observe).
func (m *Monitor) Observe(ev osn.Event) {
	if !admits(ev, &m.skipped) {
		return
	}
	m.Tracker.Update(ev)
	if ev.Type != osn.EvFriendRequest {
		return
	}
	id := ev.Actor
	if m.flagged[id] {
		return
	}
	m.seen[id]++
	every := m.CheckEvery
	if every < 1 {
		every = 1
	}
	if m.seen[id]%every != 0 {
		return
	}
	v := m.Tracker.CountsOf(id)
	// Lazy CC, mirroring the Pipeline: skip the clustering walk when
	// the classifier guarantees the counter features alone decide.
	if g, ok := m.C.(CCGated); !ok || g.NeedsCC(v) {
		m.Tracker.FillCC(&v)
	}
	if m.C.Classify(v) {
		m.flagged[id] = true
		if m.OnFlag != nil {
			m.OnFlag(id, ev.At)
		}
	}
}

// Flagged reports whether an account has been flagged.
func (m *Monitor) Flagged(id osn.AccountID) bool { return m.flagged[id] }

// FlaggedCount returns the number of flagged accounts.
func (m *Monitor) FlaggedCount() int { return len(m.flagged) }

// Skipped returns the number of friend requests and accepts dropped
// for a negative Actor or Target (see admits).
func (m *Monitor) Skipped() int { return m.skipped }

// FlaggedIDs returns all flagged accounts (order unspecified).
func (m *Monitor) FlaggedIDs() []osn.AccountID {
	out := make([]osn.AccountID, 0, len(m.flagged))
	for id := range m.flagged {
		out = append(out, id)
	}
	return out
}
