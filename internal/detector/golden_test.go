package detector

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"sybilwild/internal/campaign"
)

// TestGoldenCheckpoint holds the checkpoint format to bytes written by
// an older build: testdata/checkpoint_v1.json is the Snapshot of a
// fixed feed as serialized at commit 7f3b700, before the detector's
// state became ID-indexed and paged. The current code must produce the
// same bytes from the same feed, and a pipeline restored from the file
// must finish the feed in exactly the state of the one that never
// stopped. The file is immutable: a format change bumps SnapshotVersion
// and adds a new file beside it.
func TestGoldenCheckpoint(t *testing.T) {
	const golden = "testdata/checkpoint_v1.json"
	events := partitionSlice(campaign.Burst(7, 200, 4), 1, 2)
	cut := len(events) * 2 / 3
	live := NewPipeline(PaperRule(), nil, WithGraphReconstruction(), WithPartition(1, 2), WithCheckEvery(3))
	feedChunks(live, events[:cut], 64)
	got, err := json.Marshal(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from %s (%d bytes, want %d)", golden, len(got), len(want))
	}

	var snap PipelineSnapshot
	if err := json.Unmarshal(want, &snap); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, a := range snap.Accounts {
		seen += a.Seen
	}
	if len(snap.Flags) == 0 || seen == 0 || snap.Graph == nil || len(snap.Graph.Edges) == 0 {
		t.Fatalf("golden checkpoint is vacuous: %d flags, cadence sum %d", len(snap.Flags), seen)
	}
	restored, resume, err := NewPipelineFromSnapshot(PaperRule(), nil, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if resume != uint64(cut)+1 {
		t.Fatalf("resume sequence %d, want %d", resume, cut+1)
	}
	var final [2][]byte
	for i, p := range []*Pipeline{live, restored} {
		p.Ingest(Batch{Events: events[cut:], LastSeq: uint64(len(events))})
		if final[i], err = json.Marshal(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(final[0], final[1]) {
		t.Fatal("pipeline restored from the golden checkpoint ends the feed in a different state")
	}
	if live.FlaggedCount() <= len(snap.Flags) {
		t.Fatalf("no flag after the cut (%d before, %d at the end): the restored run judged nothing", len(snap.Flags), live.FlaggedCount())
	}
}
