// Package features extracts the four behavioural features the paper's
// detector runs on (§2.2): invitation frequency at two time scales,
// outgoing-request accept ratio, incoming-request accept ratio, and
// the clustering coefficient of an account's first 50 friends.
//
// Two extraction modes are provided: batch (over a finished event log,
// used by the classifier experiments) and streaming (incrementally
// updated from live events, used by the real-time detector).
package features

import (
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/paged"
	"sybilwild/internal/sim"
)

// FirstFriendsK is the friend-list prefix length the clustering
// coefficient is computed over (Figure 4 uses the first 50 friends).
const FirstFriendsK = 50

// Vector holds one account's behavioural features plus the raw counts
// they were derived from.
type Vector struct {
	ID osn.AccountID

	// Freq1h and Freq400h are the average number of friend requests
	// sent per 1-hour (resp. 400-hour) window, averaged over the
	// windows spanning the account's request activity (first request to
	// last request). Accounts that never sent a request have 0.
	Freq1h   float64
	Freq400h float64

	// OutAccept is the fraction of this account's outgoing requests
	// that were accepted; OutSent/OutAccepted are the raw counts.
	OutAccept   float64
	OutSent     int
	OutAccepted int

	// InAccept is the fraction of incoming requests this account
	// accepted (of those it answered plus those still pending, matching
	// the paper's observation that bans can strand pending requests).
	InAccept   float64
	InReceived int
	InAccepted int

	// CC is the clustering coefficient over the account's first
	// FirstFriendsK friends by edge-creation time.
	CC float64
}

// Features returns the vector in canonical ML ordering:
// [freq1h, freq400h, outAccept, inAccept, cc].
func (v *Vector) Features() []float64 {
	return []float64{v.Freq1h, v.Freq400h, v.OutAccept, v.InAccept, v.CC}
}

// counters is the incremental per-account state, one element of the
// Tracker's ID-indexed slab. tracked separates an account with observed
// activity from the untouched neighbours that share its page.
type counters struct {
	tracked     bool
	outSent     int
	outAccepted int
	inReceived  int
	inAccepted  int
	firstSent   sim.Time
	lastSent    sim.Time
}

// Tracker incrementally accumulates feature state from an event
// stream. It is the real-time half of the package: feed every event to
// Update, then call VectorOf for any account. The graph (for the
// clustering coefficient) is consulted lazily at read time, exactly
// like the production detector queried Renren's friendship store.
//
// Counters are indexed by account ID directly — IDs are dense, so no
// map stands between an event and its counters — in pages that are
// allocated on first contact and never move. An update allocates only
// when it touches a page for the first time. Account IDs must be
// non-negative: the detectors drop events that carry a negative one
// before they reach the tracker.
type Tracker struct {
	g       *graph.Graph
	acct    paged.Slab[counters]
	tracked int
}

// NewTracker creates a tracker reading friendship structure from g.
func NewTracker(g *graph.Graph) *Tracker {
	return &Tracker{g: g}
}

// Update folds one event into the feature state.
func (t *Tracker) Update(ev osn.Event) {
	t.UpdateActor(ev)
	t.UpdateTarget(ev)
}

// UpdateActor folds in only the state owned by ev.Actor. Together with
// UpdateTarget it splits Update along account-ownership lines.
func (t *Tracker) UpdateActor(ev osn.Event) {
	switch ev.Type {
	case osn.EvFriendRequest:
		c := t.touch(ev.Actor)
		// Min/max rather than first/last seen: a feed merged from several
		// producers may deliver an account's requests out of timestamp
		// order, and a negative span would blow up the per-window
		// frequencies.
		if c.outSent == 0 {
			c.firstSent, c.lastSent = ev.At, ev.At
		} else {
			if ev.At < c.firstSent {
				c.firstSent = ev.At
			}
			if ev.At > c.lastSent {
				c.lastSent = ev.At
			}
		}
		c.outSent++
	case osn.EvFriendAccept:
		// Actor accepted Target's request.
		t.touch(ev.Actor).inAccepted++
	case osn.EvFriendReject:
		// Reject contributes to the incoming denominator only, which
		// inReceived already counted at request time.
	}
}

// UpdateTarget folds in only the state owned by ev.Target.
func (t *Tracker) UpdateTarget(ev osn.Event) {
	switch ev.Type {
	case osn.EvFriendRequest:
		t.touch(ev.Target).inReceived++
	case osn.EvFriendAccept:
		t.touch(ev.Target).outAccepted++
	}
}

// touch returns id's counters, marking the account tracked on first
// contact.
func (t *Tracker) touch(id osn.AccountID) *counters {
	c := t.acct.At(int(id))
	if !c.tracked {
		c.tracked = true
		t.tracked++
	}
	return c
}

// Peek loads id's counters without touching them — no page is
// allocated and no account marked tracked — and returns a value derived
// from them that means nothing: it lets a detector warm a batch's
// counters before it updates them, so their cache misses overlap.
func (t *Tracker) Peek(id osn.AccountID) int {
	if c := t.acct.Peek(int(id)); c != nil {
		return c.outSent + int(c.lastSent)
	}
	return 0
}

// Tracked returns the number of accounts with any observed activity.
func (t *Tracker) Tracked() int { return t.tracked }

// VectorOf computes the current feature vector for an account.
func (t *Tracker) VectorOf(id osn.AccountID) Vector {
	v := t.CountsOf(id)
	t.FillCC(&v)
	return v
}

// FillCC fills in the clustering coefficient of v.ID from the
// tracker's graph — the deferred, expensive half of VectorOf, split
// out so detectors can skip it when their classifier doesn't need it.
func (t *Tracker) FillCC(v *Vector) {
	if v.ID >= 0 && int(v.ID) < t.g.NumNodes() {
		v.CC = t.g.ClusteringFirstK(v.ID, FirstFriendsK)
	}
}

// CountsOf computes the feature vector from the tracker's own counters
// alone, leaving CC at zero, so detectors can decide whether the CC
// walk is needed (FillCC) before paying for it.
func (t *Tracker) CountsOf(id osn.AccountID) Vector {
	v := Vector{ID: id}
	c := t.acct.Peek(int(id))
	if c == nil {
		return v
	}
	v.OutSent, v.OutAccepted = c.outSent, c.outAccepted
	v.InReceived, v.InAccepted = c.inReceived, c.inAccepted
	if c.outSent > 0 {
		v.OutAccept = float64(c.outAccepted) / float64(c.outSent)
		span := c.lastSent - c.firstSent
		v.Freq1h = perWindow(c.outSent, span, sim.TicksPerHour)
		v.Freq400h = perWindow(c.outSent, span, 400*sim.TicksPerHour)
	}
	if v.InReceived > 0 {
		v.InAccept = float64(c.inAccepted) / float64(c.inReceived)
	}
	return v
}

// perWindow computes average requests per window of length w over an
// activity span. The span is inclusive of a final partial window.
func perWindow(sent int, span sim.Time, w sim.Time) float64 {
	windows := int64(span)/int64(w) + 1
	return float64(sent) / float64(windows)
}

// Extract computes feature vectors for the given accounts from a
// finished network. It is a convenience wrapper that replays the
// retained event log through a Tracker.
func Extract(net *osn.Network, ids []osn.AccountID) []Vector {
	tr := NewTracker(net.Graph())
	for _, ev := range net.Events() {
		tr.Update(ev)
	}
	out := make([]Vector, len(ids))
	for i, id := range ids {
		out[i] = tr.VectorOf(id)
	}
	return out
}

// Dataset is a labelled feature matrix ready for the classifiers.
type Dataset struct {
	Vectors []Vector
	Labels  []bool // true = Sybil
}

// Labelled builds a classifier dataset from ground-truth account sets.
func Labelled(net *osn.Network, sybils, normals []osn.AccountID) Dataset {
	ids := make([]osn.AccountID, 0, len(sybils)+len(normals))
	ids = append(ids, sybils...)
	ids = append(ids, normals...)
	vecs := Extract(net, ids)
	labels := make([]bool, len(ids))
	for i := range sybils {
		labels[i] = true
	}
	return Dataset{Vectors: vecs, Labels: labels}
}

// Matrix returns (X, y) in the shape the SVM expects: y ∈ {+1, -1}
// with +1 = Sybil.
func (d Dataset) Matrix() ([][]float64, []float64) {
	x := make([][]float64, len(d.Vectors))
	y := make([]float64, len(d.Vectors))
	for i := range d.Vectors {
		x[i] = d.Vectors[i].Features()
		if d.Labels[i] {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return x, y
}
