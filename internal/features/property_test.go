package features

import (
	"reflect"
	"sort"
	"testing"

	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/paged"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

// slots is the number of elements s's allocated pages hold: Each
// visits every one of them.
func slots[T any](s *paged.Slab[T]) int {
	n := 0
	s.Each(func(int, *T) { n++ })
	return n
}

// TestStreamingEqualsBatchUnderRandomTraffic is the invariant the
// real-time deployment rests on: the streaming tracker must compute
// exactly the same vectors as batch extraction over the finished log,
// for arbitrary operation interleavings.
func TestStreamingEqualsBatchUnderRandomTraffic(t *testing.T) {
	r := stats.NewRand(97)
	for trial := 0; trial < 15; trial++ {
		net := osn.NewNetwork()
		n := 10 + r.Intn(30)
		ids := make([]osn.AccountID, n)
		for i := range ids {
			k := osn.Normal
			if r.Bernoulli(0.3) {
				k = osn.Sybil
			}
			ids[i] = net.CreateAccount(osn.Female, k, 0)
		}
		live := NewTracker(net.Graph())
		net.RegisterObserver(live.Update)

		var at sim.Time = 1
		for op := 0; op < 600; op++ {
			at += sim.Time(r.Intn(3))
			a := ids[r.Intn(n)]
			b := ids[r.Intn(n)]
			switch r.Intn(8) {
			case 0:
				net.Ban(a, at)
			case 1, 2:
				if pend := net.PendingFor(a); len(pend) > 0 {
					p := pend[r.Intn(len(pend))]
					net.RespondFriendRequest(a, p.From, r.Bernoulli(0.6), at)
				}
			default:
				net.SendFriendRequest(a, b, at)
			}
		}

		batch := Extract(net, ids)
		for i, id := range ids {
			if got := live.VectorOf(id); got != batch[i] {
				t.Fatalf("trial %d account %d: streaming %+v != batch %+v",
					trial, id, got, batch[i])
			}
		}
	}
}

// TestVectorInvariants: ratios are in [0,1] and counts are consistent
// under any traffic.
func TestVectorInvariants(t *testing.T) {
	r := stats.NewRand(101)
	net := osn.NewNetwork()
	n := 40
	ids := make([]osn.AccountID, n)
	for i := range ids {
		ids[i] = net.CreateAccount(osn.Male, osn.Normal, 0)
	}
	var at sim.Time = 1
	for op := 0; op < 2000; op++ {
		at++
		a := ids[r.Intn(n)]
		b := ids[r.Intn(n)]
		if r.Bernoulli(0.7) {
			net.SendFriendRequest(a, b, at)
		} else if pend := net.PendingFor(a); len(pend) > 0 {
			net.RespondFriendRequest(a, pend[0].From, r.Bernoulli(0.5), at)
		}
	}
	for _, v := range Extract(net, ids) {
		if v.OutAccept < 0 || v.OutAccept > 1 || v.InAccept < 0 || v.InAccept > 1 {
			t.Fatalf("ratio out of range: %+v", v)
		}
		if v.OutAccepted > v.OutSent || v.InAccepted > v.InReceived {
			t.Fatalf("accepted exceeds sent/received: %+v", v)
		}
		if v.CC < 0 || v.CC > 1 {
			t.Fatalf("cc out of range: %+v", v)
		}
		if v.OutSent > 0 && v.Freq1h <= 0 {
			t.Fatalf("active account with zero frequency: %+v", v)
		}
		if v.Freq1h < v.Freq400h/400-1e-9 {
			// 400h windows aggregate ≥ as much as 1h windows per window.
			t.Fatalf("window relationship violated: %+v", v)
		}
	}
}

// modelTracker is the reference the paged Tracker is checked against:
// the same counters behind a plain map, written without regard to
// layout.
type modelTracker map[osn.AccountID]*AccountState

func (m modelTracker) at(id osn.AccountID) *AccountState {
	if m[id] == nil {
		m[id] = &AccountState{ID: id}
	}
	return m[id]
}

func (m modelTracker) update(ev osn.Event) {
	switch ev.Type {
	case osn.EvFriendRequest:
		a := m.at(ev.Actor)
		if a.OutSent == 0 || ev.At < a.FirstSent {
			a.FirstSent = ev.At
		}
		if a.OutSent == 0 || ev.At > a.LastSent {
			a.LastSent = ev.At
		}
		a.OutSent++
		m.at(ev.Target).InReceived++
	case osn.EvFriendAccept:
		m.at(ev.Actor).InAccepted++
		m.at(ev.Target).OutAccepted++
	}
}

func (m modelTracker) export() []AccountState {
	out := make([]AccountState, 0, len(m))
	for _, st := range m {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestTrackerMatchesMapModel drives the Tracker and the map-backed
// model with the same random events over a sparse ID space (clusters
// of accounts several pages apart, so touched pages have untouched
// neighbours and whole pages stay unallocated) and, at random points,
// replaces the Tracker by an Export → Import copy of itself. Export,
// Tracked and every account's counters — probed on touched pages,
// untouched pages, past the end and below zero — must match the model
// throughout.
func TestTrackerMatchesMapModel(t *testing.T) {
	g := graph.New(0)
	for seed := int64(1); seed <= 10; seed++ {
		r := stats.NewRand(seed)
		ids := make([]osn.AccountID, 60)
		for i := range ids {
			cluster := r.Intn(4) * 5 * paged.PageSize
			ids[i] = osn.AccountID(cluster + r.Intn(2*paged.PageSize))
		}
		types := []osn.EventType{osn.EvFriendRequest, osn.EvFriendRequest, osn.EvFriendAccept, osn.EvFriendReject, osn.EvMessage}
		tr, model := NewTracker(g), modelTracker{}
		for step := 0; step < 3000; step++ {
			ev := osn.Event{
				Type:   types[r.Intn(len(types))],
				At:     sim.Time(r.Intn(1000)),
				Actor:  ids[r.Intn(len(ids))],
				Target: ids[r.Intn(len(ids))],
			}
			tr.Update(ev)
			model.update(ev)
			if r.Intn(500) == 0 {
				copied := NewTracker(g)
				if err := copied.Import(tr.Export()); err != nil {
					t.Fatalf("seed %d step %d: import: %v", seed, step, err)
				}
				tr = copied
			}
			if step%100 != 99 {
				continue
			}
			want := model.export()
			if got := tr.Export(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: export diverges from the model:\n got %+v\nwant %+v", seed, step, got, want)
			}
			if tr.Tracked() != len(model) {
				t.Fatalf("seed %d step %d: tracked %d, model has %d", seed, step, tr.Tracked(), len(model))
			}
			probes := append([]osn.AccountID{-1, 3 * paged.PageSize, 1 << 30}, ids...)
			for _, id := range probes {
				v, st := tr.CountsOf(id), AccountState{ID: id}
				if m := model[id]; m != nil {
					st = *m
				}
				if v.ID != id || v.OutSent != st.OutSent || v.OutAccepted != st.OutAccepted ||
					v.InReceived != st.InReceived || v.InAccepted != st.InAccepted {
					t.Fatalf("seed %d step %d: CountsOf(%d) = %+v, model %+v", seed, step, id, v, st)
				}
			}
		}
	}
}

// TestTrackerOutlierIDCostsOnePage: one far-out account ID costs its
// own page of counters, not a slab reaching up to it.
func TestTrackerOutlierIDCostsOnePage(t *testing.T) {
	tr := NewTracker(graph.New(0))
	tr.Update(osn.Event{Type: osn.EvFriendRequest, At: 1, Actor: 1 << 24, Target: 7})
	if got := slots(&tr.acct); got != 2*paged.PageSize {
		t.Fatalf("counters hold %d slots for 2 far-apart accounts, want 2 pages (%d)", got, 2*paged.PageSize)
	}
	if v := tr.VectorOf(1 << 24); v.OutSent != 1 || tr.Tracked() != 2 {
		t.Fatalf("outlier vector %+v, tracked %d", v, tr.Tracked())
	}
}
