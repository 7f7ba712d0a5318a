package detector

import (
	"runtime"
	"testing"

	"sybilwild/internal/campaign"
	"sybilwild/internal/features"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/paged"
	"sybilwild/internal/sim"
)

// slots is the number of elements s's allocated pages hold: Each
// visits every one of them.
func slots[T any](s *paged.Slab[T]) int {
	n := 0
	s.Each(func(int, *T) { n++ })
	return n
}

// TestDetectorStateAllocBudget is the tier-1 form of sybilbench's
// detector-direct alloc_bytes_per_ev: a 20k-account campaign shaped
// like the benchmark's, split by osn.PartitionDelivers into K=2
// partition-gated reconstruction pipelines fed in wire-batch chunks.
// Everything the detector allocates for it, state included, is divided
// by the feed's event count. With ID-indexed paged state that is
// 72.3 B/ev — the adjacency lists' append growth (~50) plus the pages
// themselves; with handle-indexed slabs re-copied as they grew and an
// id→handle map (the parent of PR 20) it was 160.0.
func TestDetectorStateAllocBudget(t *testing.T) {
	const (
		K           = 2
		chunk       = 256
		stateBudget = 80.0
	)
	events := campaign.Burst(7, 20_000, 10)
	slices := partitionSlices(events, K)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	flagged := ingestPartitioned(slices, chunk)
	runtime.ReadMemStats(&m1)
	if want := 20_000 / 50; flagged != want {
		t.Fatalf("flagged %d accounts, want the %d Sybils", flagged, want)
	}
	perEv := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(events))
	t.Logf("detector state allocates %.1f B/ev over %d events (budget %.0f)", perEv, len(events), stateBudget)
	if perEv > stateBudget {
		t.Errorf("detector state allocates %.1f B/ev, budget is %.0f", perEv, stateBudget)
	}
}

// flagNone flags nothing. It is not CCGated, so every evaluation walks
// the clustering coefficient: the costliest evaluation that leaves the
// flag map alone.
type flagNone struct{}

func (flagNone) Classify(features.Vector) bool { return false }

// TestSteadyIngestAllocatesNothing: once the accounts are tracked and
// their friend lists built, neither Observe nor a 256-event Ingest of
// friend requests between them allocates. That holds the warm pass to
// reads that allocate no page and grow nothing, and keeps Observe's
// one-event batch on the stack although apply takes a pointer into it.
func TestSteadyIngestAllocatesNothing(t *testing.T) {
	const accounts = 64
	p := NewPipeline(flagNone{}, nil, WithGraphReconstruction())
	var friends []osn.Event
	for a := 0; a < accounts; a++ {
		for _, d := range []int{1, 3, 7} {
			friends = append(friends, osn.Event{Type: osn.EvFriendAccept, At: sim.Time(a),
				Actor: osn.AccountID(a), Target: osn.AccountID((a + d) % accounts)})
		}
	}
	p.Ingest(Batch{Events: friends})
	batch := make([]osn.Event, 256)
	for i := range batch {
		batch[i] = osn.Event{Type: osn.EvFriendRequest, At: sim.Time(accounts + i),
			Actor: osn.AccountID(i % accounts), Target: osn.AccountID((5 * i) % accounts)}
	}
	if n := testing.AllocsPerRun(20, func() { p.Ingest(Batch{Events: batch}) }); n != 0 {
		t.Errorf("a 256-event Ingest of requests between tracked accounts allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { p.Observe(batch[1]) }); n != 0 {
		t.Errorf("Observe of a request between tracked accounts allocates %.1f times, want 0", n)
	}
	if got := p.FlaggedCount(); got != 0 {
		t.Fatalf("flagged %d accounts, want none", got)
	}
}

// TestNegativeAccountIDsAreSkipped: the wire decodes any int32, and
// account IDs index the detector's state, so the pipeline refuses a
// friend event with a negative Actor or Target before touching
// anything, and counts it. (An accept used to panic in the graph, a
// request to panic later inside the flagged account's CC walk.)
func TestNegativeAccountIDsAreSkipped(t *testing.T) {
	bad := []osn.Event{
		{Type: osn.EvFriendRequest, At: 1, Actor: -3, Target: 2},
		{Type: osn.EvFriendRequest, At: 2, Actor: 2, Target: -3},
		{Type: osn.EvFriendAccept, At: 3, Actor: -1, Target: 2},
		{Type: osn.EvFriendAccept, At: 4, Actor: 2, Target: -1},
	}
	feed := append(bad[:len(bad):len(bad)],
		osn.Event{Type: osn.EvBan, At: 5, Actor: -1, Target: 2}, // no friend event: ignored, not counted
		osn.Event{Type: osn.EvFriendRequest, At: 6, Actor: 1, Target: 2},
	)

	p := NewPipeline(flagAll{}, nil, WithGraphReconstruction())
	p.Ingest(Batch{Events: feed})
	if p.Skipped() != len(bad) || p.Tracked() != 2 || p.Graph().NumNodes() != 3 {
		t.Fatalf("pipeline: skipped %d (want %d), tracked %d (want 2), graph nodes %d (want 3)",
			p.Skipped(), len(bad), p.Tracked(), p.Graph().NumNodes())
	}
	if ids := p.FlaggedIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("pipeline flagged %v, want [1]", ids)
	}
	if _, _, err := NewPipelineFromSnapshot(flagAll{}, nil, &PipelineSnapshot{
		Version: SnapshotVersion, Graph: &graphSnapshotEmpty, Flags: []Flag{{ID: -4}},
	}); err == nil {
		t.Fatal("restore accepted a flag for a negative account id")
	}

}

// TestOutlierAccountIDCostsOnePage: state is indexed by account ID, so
// one far-out ID must cost a page of evaluation state, not an array up
// to it. The graph is the caller's: a reconstructed graph's node range
// still reaches the highest ID.
func TestOutlierAccountIDCostsOnePage(t *testing.T) {
	const outlier = 1 << 24
	p := NewPipeline(flagAll{}, graph.New(0))
	p.Ingest(Batch{Events: []osn.Event{
		{Type: osn.EvFriendRequest, At: 1, Actor: 1, Target: 2},
		{Type: osn.EvFriendRequest, At: 2, Actor: outlier, Target: 2},
	}})
	if f := flaggedSet(p); !f[1] || !f[outlier] {
		t.Fatalf("flagged %v, want accounts 1 and %d", p.FlaggedIDs(), outlier)
	}
	if got := slots(&p.eval); got != 2*paged.PageSize {
		t.Fatalf("evaluation state holds %d slots for 2 far-apart accounts, want 2 pages (%d)", got, 2*paged.PageSize)
	}
	snap := p.Snapshot()
	if len(snap.Accounts) != 3 || snap.Accounts[2].State.ID != outlier {
		t.Fatalf("snapshot accounts %+v, want 1, 2 and %d", snap.Accounts, outlier)
	}
	r, _, err := NewPipelineFromSnapshot(flagAll{}, graph.New(0), snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := slots(&r.eval); got != 2*paged.PageSize {
		t.Fatalf("restored evaluation state holds %d slots, want %d", got, 2*paged.PageSize)
	}
}
