package features

import (
	"reflect"
	"testing"

	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

// randomEvents generates a plausible mixed event stream over n
// accounts: bursts of requests with accept/reject responses, shuffled
// enough to exercise the min/max first/last-sent handling.
func randomEvents(seed int64, n, count int) []osn.Event {
	r := stats.NewRand(seed)
	evs := make([]osn.Event, 0, count)
	for i := 0; i < count; i++ {
		from := osn.AccountID(r.Intn(n))
		to := osn.AccountID(r.Intn(n))
		if from == to {
			continue
		}
		at := sim.Time(r.Intn(400 * int(sim.TicksPerHour)))
		evs = append(evs, osn.Event{Type: osn.EvFriendRequest, At: at, Actor: from, Target: to})
		switch {
		case r.Bernoulli(0.5):
			evs = append(evs, osn.Event{Type: osn.EvFriendAccept, At: at + 1, Actor: to, Target: from})
		case r.Bernoulli(0.3):
			evs = append(evs, osn.Event{Type: osn.EvFriendReject, At: at + 1, Actor: to, Target: from})
		}
	}
	return evs
}

// TestTrackerExportImportLossless is the property test: for many
// random event streams, Export → Import into a fresh tracker must
// reproduce every account's feature vector exactly, and a further
// Export must be identical (round-trip stability).
func TestTrackerExportImportLossless(t *testing.T) {
	g := graph.New(0)
	for seed := int64(1); seed <= 20; seed++ {
		const accounts = 300
		tr := NewTracker(g)
		for _, ev := range randomEvents(seed, accounts, 2000) {
			tr.Update(ev)
		}
		exported := tr.Export()
		if len(exported) == 0 || len(exported) != tr.Tracked() {
			t.Fatalf("seed %d: exported %d states, tracked %d", seed, len(exported), tr.Tracked())
		}
		for i := 1; i < len(exported); i++ {
			if exported[i-1].ID >= exported[i].ID {
				t.Fatalf("seed %d: export not sorted by ID at %d", seed, i)
			}
		}
		restored := NewTracker(g)
		if err := restored.Import(exported); err != nil {
			t.Fatalf("seed %d: import: %v", seed, err)
		}
		if restored.Tracked() != tr.Tracked() {
			t.Fatalf("seed %d: restored tracks %d, original %d", seed, restored.Tracked(), tr.Tracked())
		}
		for id := osn.AccountID(0); id < accounts; id++ {
			if got, want := restored.VectorOf(id), tr.VectorOf(id); got != want {
				t.Fatalf("seed %d: account %d vector diverged after round trip:\n got %+v\nwant %+v", seed, id, got, want)
			}
		}
		if again := restored.Export(); !reflect.DeepEqual(again, exported) {
			t.Fatalf("seed %d: second export differs from first", seed)
		}
	}
}

// TestTrackerImportContinuesStream: import mid-stream, keep feeding
// the remaining events, and the restored tracker must stay in
// lockstep with the uninterrupted one — the property the pipeline's
// checkpoint/restore leans on.
func TestTrackerImportContinuesStream(t *testing.T) {
	g := graph.New(0)
	const accounts = 200
	evs := randomEvents(99, accounts, 3000)
	cut := len(evs) / 2

	full := NewTracker(g)
	for _, ev := range evs {
		full.Update(ev)
	}

	half := NewTracker(g)
	for _, ev := range evs[:cut] {
		half.Update(ev)
	}
	resumed := NewTracker(g)
	if err := resumed.Import(half.Export()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs[cut:] {
		resumed.Update(ev)
	}
	for id := osn.AccountID(0); id < accounts; id++ {
		if got, want := resumed.VectorOf(id), full.VectorOf(id); got != want {
			t.Fatalf("account %d diverged after mid-stream restore:\n got %+v\nwant %+v", id, got, want)
		}
	}
}

// TestTrackerImportRejectsDuplicates: counters are absolute, so
// importing an already-tracked account must fail rather than
// double-count.
func TestTrackerImportRejectsDuplicates(t *testing.T) {
	tr := NewTracker(graph.New(0))
	tr.Update(osn.Event{Type: osn.EvFriendRequest, At: 1, Actor: 7, Target: 9})
	if err := tr.Import([]AccountState{{ID: 7, OutSent: 3}}); err == nil {
		t.Fatal("import of an already-tracked account succeeded")
	}
	if err := tr.Import([]AccountState{{ID: -7, OutSent: 3}}); err == nil {
		t.Fatal("import of a negative account id succeeded")
	}
}
