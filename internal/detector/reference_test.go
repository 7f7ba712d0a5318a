package detector

import (
	"fmt"
	"sort"
	"testing"

	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// reference is the paper's real-time detector written a second time,
// from §2.2 and §2.3 rather than from this package: it shares no code
// with Pipeline — no admission gate, no Tracker, no graph, no
// Classify — and reads only the four thresholds of the Rule it is
// given. It is the oracle the equivalence tests compare Pipeline
// against, so a wrong feature fails them instead of agreeing with
// itself.
//
// State lives in maps. Every due request recomputes its features from
// their definitions over the raw counts, and the clustering
// coefficient by brute force over the pairs of the first 50 friends.
// The log is the truth: each accept event counts as one accepted
// request, even a duplicate or a self-accept; a pair of accounts is
// friends once, and no account is its own friend.
type reference struct {
	outAcceptMax, freqMin, ccMax float64
	minObserved                  int
	every                        int

	// frozen keeps the friend lists as befriend seeded them: accepts
	// move only counters. It stands for a pipeline over a caller's
	// finished graph.
	frozen bool

	accounts map[osn.AccountID]*refAccount
	pairs    map[[2]osn.AccountID]bool
	flags    []verdict
	skipped  int

	// What the clustering term did: evaluations whose coefficient came
	// out non-zero, and those it alone kept from a flag.
	ccNonZero, ccVetoed int
}

// refAccount is one account as the reference knows it.
type refAccount struct {
	sent        int      // friend requests sent
	accepted    int      // of those, accepted
	first, last sim.Time // earliest and latest request
	requests    int      // requests counted toward the check cadence
	friends     []osn.AccountID
	flagged     bool
}

// verdict is one flag and the features that crossed the thresholds.
type verdict struct {
	ID                   osn.AccountID
	At                   sim.Time
	OutSent, OutAccepted int
	OutAccept, Freq1h    float64
	CC                   float64
}

// firstFriends is the friend-list prefix the clustering coefficient is
// taken over (Figure 4).
const firstFriends = 50

// newReference judges with r's thresholds every checkEvery-th request
// an account sends (values below 1 mean every request).
func newReference(r Rule, checkEvery int) *reference {
	return &reference{
		outAcceptMax: r.OutAcceptMax,
		freqMin:      r.FreqMin,
		ccMax:        r.CCMax,
		minObserved:  r.MinObserved,
		every:        max(checkEvery, 1),
		accounts:     make(map[osn.AccountID]*refAccount),
		pairs:        make(map[[2]osn.AccountID]bool),
	}
}

func (r *reference) account(id osn.AccountID) *refAccount {
	a := r.accounts[id]
	if a == nil {
		a = &refAccount{}
		r.accounts[id] = a
	}
	return a
}

// befriend records the friendship {u, v} unless it exists already,
// appending each side to the other's friend list.
func (r *reference) befriend(u, v osn.AccountID) {
	key := [2]osn.AccountID{min(u, v), max(u, v)}
	if u == v || r.pairs[key] {
		return
	}
	r.pairs[key] = true
	r.account(u).friends = append(r.account(u).friends, v)
	r.account(v).friends = append(r.account(v).friends, u)
}

// replay observes every event in order and returns r.
func (r *reference) replay(events []osn.Event) *reference {
	for _, ev := range events {
		r.observe(ev)
	}
	return r
}

// observe applies one log event: only friend requests and accepts
// carry the features, and an event naming a negative account is
// dropped and counted.
func (r *reference) observe(ev osn.Event) {
	if ev.Type != osn.EvFriendRequest && ev.Type != osn.EvFriendAccept {
		return
	}
	if ev.Actor < 0 || ev.Target < 0 {
		r.skipped++
		return
	}
	if ev.Type == osn.EvFriendAccept {
		// Actor accepted a request Target sent.
		r.account(ev.Target).accepted++
		if !r.frozen {
			r.befriend(ev.Actor, ev.Target)
		}
		return
	}
	a := r.account(ev.Actor)
	if a.sent == 0 || ev.At < a.first {
		a.first = ev.At
	}
	if a.sent == 0 || ev.At > a.last {
		a.last = ev.At
	}
	a.sent++
	if a.flagged {
		return
	}
	if a.requests++; a.requests%r.every == 0 {
		r.judge(ev, a)
	}
}

// judge applies the §2.3 conjunction to the sender of request ev.
func (r *reference) judge(ev osn.Event, a *refAccount) {
	v := verdict{
		ID: ev.Actor, At: ev.At, OutSent: a.sent, OutAccepted: a.accepted,
		OutAccept: float64(a.accepted) / float64(a.sent),
	}
	// Invitation frequency: requests per 1-hour window, averaged over
	// the consecutive windows that cover the first request to the last.
	windows := 0
	for start := a.first; start <= a.last; start += sim.TicksPerHour {
		windows++
	}
	v.Freq1h = float64(a.sent) / float64(windows)
	if a.sent < r.minObserved || v.OutAccept >= r.outAcceptMax || v.Freq1h <= r.freqMin {
		return
	}
	// Clustering coefficient: the share of pairs among the first 50
	// friends that are friends themselves.
	prefix := a.friends[:min(len(a.friends), firstFriends)]
	if n := len(prefix); n >= 2 {
		linked := 0
		for i := range prefix {
			for _, w := range prefix[i+1:] {
				if r.pairs[[2]osn.AccountID{min(prefix[i], w), max(prefix[i], w)}] {
					linked++
				}
			}
		}
		v.CC = float64(linked) / float64(n*(n-1)/2)
	}
	if v.CC > 0 {
		r.ccNonZero++
	}
	if v.CC >= r.ccMax {
		r.ccVetoed++
		return
	}
	a.flagged = true
	r.flags = append(r.flags, v)
}

// verdicts returns the flags sorted by account.
func (r *reference) verdicts() []verdict {
	out := append([]verdict(nil), r.flags...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// requireMatchesReference fails t unless got holds exactly the
// reference's verdicts: the same accounts, flagged at the same time
// with bit-identical feature values.
func requireMatchesReference(t *testing.T, label string, got []Flag, ref *reference) {
	t.Helper()
	want := ref.verdicts()
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	if len(got) != len(want) {
		t.Fatalf("%s: pipeline flagged %d accounts, reference %d:\n got %v\nwant %v", label, len(got), len(want), flagIDs(got), want)
	}
	for i, f := range got {
		v := f.Vector
		g := verdict{ID: f.ID, At: f.At, OutSent: v.OutSent, OutAccepted: v.OutAccepted,
			OutAccept: v.OutAccept, Freq1h: v.Freq1h, CC: v.CC}
		if g != want[i] {
			t.Fatalf("%s: verdicts differ:\n got %+v\nwant %+v", label, g, want[i])
		}
	}
}

func flagIDs(fs []Flag) []osn.AccountID {
	ids := make([]osn.AccountID, len(fs))
	for i, f := range fs {
		ids[i] = f.ID
	}
	return ids
}

// TestReferenceEdgeCases holds Pipeline to the reference on small
// literal feeds, each built on the boundary of one feature, so that a
// detector that gets the feature wrong flags a different set or
// reports a different vector.
func TestReferenceEdgeCases(t *testing.T) {
	const h = sim.TicksPerHour
	req := func(at sim.Time, from, to osn.AccountID) osn.Event {
		return osn.Event{Type: osn.EvFriendRequest, At: at, Actor: from, Target: to}
	}
	acc := func(at sim.Time, by, of osn.AccountID) osn.Event {
		return osn.Event{Type: osn.EvFriendAccept, At: at, Actor: by, Target: of}
	}
	// burst has account id send n unanswered requests at tick at, to
	// targets from 1000 up.
	burst := func(at sim.Time, id osn.AccountID, n int) []osn.Event {
		evs := make([]osn.Event, n)
		for i := range evs {
			evs[i] = req(at, id, 1000+osn.AccountID(i))
		}
		return evs
	}
	cases := []struct {
		name string
		rule Rule
		feed []osn.Event
		want []osn.AccountID
		skip int
	}{{
		// Account 0's first 50 friends know no one else in the prefix;
		// its 51st is friends with all 50. Over 50 friends CC is 0 and
		// the burst that follows flags it; over 51 it would be
		// 50/1275 ≈ 0.039, above CCMax, and it would go free.
		name: "51st friend closes triangles",
		rule: Rule{OutAcceptMax: 0.5, FreqMin: 2, CCMax: 0.03, MinObserved: 10},
		feed: func() []osn.Event {
			var evs []osn.Event
			for f := osn.AccountID(1); f <= 51; f++ {
				evs = append(evs, req(1, 0, f), acc(2, f, 0))
			}
			for f := osn.AccountID(1); f <= 50; f++ {
				evs = append(evs, req(3, 51, f), acc(4, f, 51))
			}
			return append(evs, burst(5, 0, 60)...)
		}(),
		want: []osn.AccountID{0},
	}, {
		// Ten requests whose span is exactly one hour cover two windows
		// (5/h, not above FreqMin); one tick less fits one (10/h).
		name: "span of one hour and of one hour less a tick",
		rule: Rule{OutAcceptMax: 0.5, FreqMin: 6, CCMax: 0.5, MinObserved: 10},
		feed: append(append(burst(0, 1, 9), burst(0, 2, 9)...),
			req(h, 1, 2000), req(h-1, 2, 2000)),
		want: []osn.AccountID{2},
	}, {
		// No accepts at all: the ratio is 0, below any positive cut.
		name: "zero accepts",
		rule: Rule{OutAcceptMax: 0.01, FreqMin: 0, CCMax: 0.5, MinObserved: 5},
		feed: burst(0, 3, 5),
		want: []osn.AccountID{3},
	}, {
		// Account 4 accepting its own request counts as one accepted
		// request (1 of 4 sent, so not below 0.25) and makes no friend.
		// Account 5 sends the same burst without it and is flagged.
		name: "self-accept",
		rule: Rule{OutAcceptMax: 0.25, FreqMin: 0, CCMax: 0.5, MinObserved: 4},
		feed: append(append(append(burst(0, 4, 3), acc(1, 4, 4)), burst(0, 5, 4)...), req(2, 4, 2000)),
		want: []osn.AccountID{5},
	}, {
		// Account 7 accepts account 6 twice: with 8's accept that is
		// three accepted requests of ten, but still one friendship.
		// Friends 7 and 8 are linked, so CC over the pair is 1; a
		// friend list holding 7 twice would read 2/3.
		name: "duplicate accept",
		rule: Rule{OutAcceptMax: 0.35, FreqMin: 0, CCMax: 2, MinObserved: 10},
		feed: append([]osn.Event{
			req(0, 6, 7), req(0, 6, 8), acc(1, 7, 6), acc(1, 8, 6), acc(2, 7, 6),
			req(3, 8, 7), acc(4, 7, 8),
		}, burst(5, 6, 8)...),
		want: []osn.AccountID{6},
	}, {
		// Negative IDs are dropped before touching any state: counted,
		// never a friend, never a sender.
		name: "negative IDs",
		rule: Rule{OutAcceptMax: 0.5, FreqMin: 0, CCMax: 0.5, MinObserved: 3},
		feed: []osn.Event{
			req(0, -9, 10), req(0, -9, 11), req(0, -9, 12),
			req(0, 9, 10), acc(1, -1, 9), acc(1, 10, -9), req(1, 9, -2), req(2, 9, 11), req(3, 9, 12),
		},
		want: []osn.AccountID{9},
		skip: 6,
	}}
	for _, c := range cases {
		ref := newReference(c.rule, 1).replay(c.feed)
		if got := verdictIDs(ref.verdicts()); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("%s: reference flagged %v, the case is built for %v", c.name, got, c.want)
		}
		if ref.skipped != c.skip {
			t.Fatalf("%s: reference skipped %d events, want %d", c.name, ref.skipped, c.skip)
		}
		for _, chunk := range []int{1, len(c.feed)} {
			label := fmt.Sprintf("%s (chunk=%d)", c.name, chunk)
			p := NewPipeline(c.rule, nil, WithGraphReconstruction())
			feedChunks(p, c.feed, chunk)
			p.Close()
			requireMatchesReference(t, label, p.Flags(), ref)
			if p.Skipped() != ref.skipped {
				t.Fatalf("%s: pipeline skipped %d events, reference %d", label, p.Skipped(), ref.skipped)
			}
		}
	}
}

func verdictIDs(vs []verdict) []osn.AccountID {
	ids := make([]osn.AccountID, len(vs))
	for i, v := range vs {
		ids[i] = v.ID
	}
	return ids
}
