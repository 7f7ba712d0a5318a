package detector

import (
	"runtime"
	"testing"

	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/paged"
)

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
	events := burstCampaign(7, 20_000, 10)
	var slices [K][]osn.Event
	for w := range slices {
		slices[w] = partitionSlice(events, w, K)
	}
	flagged := 0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for w, evs := range slices {
		p := NewPipeline(PaperRule(), nil, WithGraphReconstruction(), WithPartition(w, K))
		for lo := 0; lo < len(evs); lo += chunk {
			p.Ingest(Batch{Events: evs[lo:min(lo+chunk, len(evs))]})
		}
		p.Close()
		flagged += p.FlaggedCount()
	}
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
	if !p.Flagged(1) || !p.Flagged(outlier) {
		t.Fatalf("flagged %v, want accounts 1 and %d", p.FlaggedIDs(), outlier)
	}
	if got := p.eval.Cap(); got != 2*paged.PageSize {
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
	if got := r.eval.Cap(); got != 2*paged.PageSize {
		t.Fatalf("restored evaluation state holds %d slots, want %d", got, 2*paged.PageSize)
	}
}
