package detector

import (
	"strings"
	"testing"

	"sybilwild/internal/features"
	"sybilwild/internal/osn"
)

// partitionSlice filters a full event log down to what partition part
// of parts receives over a filtered feed subscription — the same
// contract the broker applies (osn.PartitionDelivers).
func partitionSlice(events []osn.Event, part, parts int) []osn.Event {
	var out []osn.Event
	for _, ev := range events {
		if osn.PartitionDelivers(ev, part, parts) {
			out = append(out, ev)
		}
	}
	return out
}

// TestPartitionedPipelinesMatchSingle is the detector half of the
// cluster equivalence property: K pipelines, each fed only its
// partition's slice of the feed (owned actors plus support events) and
// gated to evaluate only owned accounts, must jointly flag exactly the
// set a single pipeline fed the full log flags — no verdict lost to a
// split feature vector, none duplicated, none emitted by a non-owner.
func TestPartitionedPipelinesMatchSingle(t *testing.T) {
	pop := campaignLog(t, 47)
	events := pop.Net.Events()
	rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())

	single := NewPipeline(rule, nil, WithGraphReconstruction())
	single.Ingest(Batch{Events: events})
	single.Close()
	want := sortedIDs(single.FlaggedIDs())
	if len(want) == 0 {
		t.Fatal("single pipeline flagged nothing; equivalence test is vacuous")
	}

	for _, k := range []int{2, 3, 5} {
		union := make(map[osn.AccountID]int)
		for part := 0; part < k; part++ {
			p := NewPipeline(rule, nil, WithGraphReconstruction(), WithPartition(part, k))
			p.Ingest(Batch{Events: partitionSlice(events, part, k)})
			p.Close()
			for _, id := range p.FlaggedIDs() {
				if osn.Partition(id, k) != part {
					t.Fatalf("k=%d: partition %d flagged account %d owned by partition %d",
						k, part, id, osn.Partition(id, k))
				}
				union[id]++
			}
		}
		got := make([]osn.AccountID, 0, len(union))
		for id, n := range union {
			if n != 1 {
				t.Fatalf("k=%d: account %d flagged by %d partitions", k, id, n)
			}
			got = append(got, id)
		}
		got = sortedIDs(got)
		if len(got) != len(want) {
			t.Fatalf("k=%d: union flagged %d accounts, single run flagged %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: flag sets differ at %d: %d vs %d", k, i, got[i], want[i])
			}
		}
	}
}

// TestPartitionedSnapshotRoundTrip cuts a partitioned pipeline
// mid-feed, restores the snapshot, finishes the slice, and requires
// the same flags as the uninterrupted partitioned run — and that the
// snapshot carries its partition through the round trip.
func TestPartitionedSnapshotRoundTrip(t *testing.T) {
	pop := campaignLog(t, 53)
	events := pop.Net.Events()
	rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())
	const part, parts = 1, 3
	slice := partitionSlice(events, part, parts)

	ref := NewPipeline(rule, nil, WithGraphReconstruction(), WithPartition(part, parts))
	ref.Ingest(Batch{Events: slice})
	ref.Close()
	want := sortedIDs(ref.FlaggedIDs())
	if len(want) == 0 {
		t.Fatal("partition flagged nothing; round-trip test is vacuous")
	}

	cut := len(slice) / 2
	p1 := NewPipeline(rule, nil, WithGraphReconstruction(), WithPartition(part, parts))
	p1.Ingest(Batch{Events: slice[:cut], LastSeq: uint64(cut)})
	snap := p1.Snapshot()
	p1.Close()
	if snap.Part != part || snap.Parts != parts {
		t.Fatalf("snapshot stamped partition %d/%d, want %d/%d", snap.Part, snap.Parts, part, parts)
	}
	if snap.Seq != uint64(cut) {
		t.Fatalf("snapshot stamped seq %d, want %d", snap.Seq, cut)
	}

	p2, resume, err := NewPipelineFromSnapshot(rule, nil, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if resume != uint64(cut)+1 {
		t.Fatalf("resume seq = %d, want %d", resume, cut+1)
	}
	if p2.part != part || p2.parts != parts {
		t.Fatalf("restored pipeline evaluates partition %d/%d, want %d/%d", p2.part, p2.parts, part, parts)
	}
	p2.Ingest(Batch{Events: slice[cut:]})
	p2.Close()
	got := sortedIDs(p2.FlaggedIDs())
	if len(got) != len(want) {
		t.Fatalf("restored run flagged %d, uninterrupted flagged %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flag sets differ at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestSnapshotPartitionMismatchRejected: a snapshot restores only into
// its own partition, in both directions.
func TestSnapshotPartitionMismatchRejected(t *testing.T) {
	rule := PaperRule()
	partitioned := NewPipeline(rule, nil, WithGraphReconstruction(), WithPartition(0, 2))
	snapPart := partitioned.Snapshot()
	partitioned.Close()
	plain := NewPipeline(rule, nil, WithGraphReconstruction())
	snapPlain := plain.Snapshot()
	plain.Close()

	cases := []struct {
		name string
		snap *PipelineSnapshot
		opts []PipelineOption
	}{
		{"partitioned snapshot into other partition", snapPart, []PipelineOption{WithPartition(1, 2)}},
		{"partitioned snapshot into other group size", snapPart, []PipelineOption{WithPartition(0, 3)}},
		{"unpartitioned snapshot into a partition", snapPlain, []PipelineOption{WithPartition(0, 2)}},
	}
	for _, tc := range cases {
		if _, _, err := NewPipelineFromSnapshot(rule, nil, tc.snap, tc.opts...); err == nil ||
			!strings.Contains(err.Error(), "partition") {
			t.Fatalf("%s: err = %v, want a partition mismatch", tc.name, err)
		}
	}
	// Restating the snapshot's own partition is fine.
	p, _, err := NewPipelineFromSnapshot(rule, nil, snapPart, WithPartition(0, 2))
	if err != nil {
		t.Fatalf("restate partition: %v", err)
	}
	p.Close()
}
