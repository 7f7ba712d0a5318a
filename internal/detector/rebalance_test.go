package detector

import (
	"encoding/json"
	"strings"
	"testing"

	"sybilwild/internal/features"
	"sybilwild/internal/osn"
)

// idOwnedBy returns an account id that osn.Partition assigns to part
// of parts (and, when avoidParts > 0, that avoidPart of avoidParts
// does NOT own — for building cross-shape fixtures).
func idOwnedBy(t *testing.T, part, parts int) osn.AccountID {
	t.Helper()
	for id := osn.AccountID(1); id < 1<<16; id++ {
		if osn.Partition(id, parts) == part {
			return id
		}
	}
	t.Fatalf("no account id found for partition %d/%d", part, parts)
	return 0
}

// TestRebalanceSnapshotsLiveEquivalence is the detector half of the
// live-rebalance acceptance property: cut a K-way partitioned
// campaign at a barrier, re-key the K snapshots into K', restore K'
// pipelines and finish the feed partitioned the new way — the union
// of flags must equal the uninterrupted single run, each verdict
// emitted exactly once by the account's new owner.
func TestRebalanceSnapshotsLiveEquivalence(t *testing.T) {
	pop := campaignLog(t, 61)
	events := pop.Net.Events()
	rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())

	single := NewPipeline(rule, nil, WithGraphReconstruction())
	single.Ingest(Batch{Events: events})
	single.Close()
	want := sortedIDs(single.FlaggedIDs())
	if len(want) == 0 {
		t.Fatal("single pipeline flagged nothing; equivalence test is vacuous")
	}

	cut := len(events) / 2
	for _, c := range []struct{ from, to int }{{3, 5}, {4, 2}} {
		// Phase 1: the old cluster runs to the barrier and snapshots.
		snaps := make([]*PipelineSnapshot, c.from)
		for part := 0; part < c.from; part++ {
			p := NewPipeline(rule, nil, WithGraphReconstruction(), WithPartition(part, c.from))
			p.Ingest(Batch{Events: partitionSlice(events[:cut], part, c.from), LastSeq: uint64(cut)})
			snaps[part] = p.Snapshot()
			p.Close()
		}

		out, err := RebalanceSnapshots(snaps, c.to)
		if err != nil {
			t.Fatalf("%d->%d: %v", c.from, c.to, err)
		}
		if len(out) != c.to {
			t.Fatalf("%d->%d: got %d snapshots", c.from, c.to, len(out))
		}

		// Union preservation: every account owned somewhere in the old
		// shape appears exactly once across the new shape.
		owned := make(map[osn.AccountID]bool)
		for _, s := range snaps {
			for _, a := range s.Accounts {
				if osn.Partition(a.State.ID, c.from) == s.Part {
					owned[a.State.ID] = true
				}
			}
		}
		moved := make(map[osn.AccountID]int)
		for _, s := range out {
			for _, a := range s.Accounts {
				if osn.Partition(a.State.ID, c.to) != s.Part {
					t.Fatalf("%d->%d: account %d landed in partition %d it does not belong to",
						c.from, c.to, a.State.ID, s.Part)
				}
				moved[a.State.ID]++
			}
		}
		if len(moved) != len(owned) {
			t.Fatalf("%d->%d: %d accounts before re-key, %d after", c.from, c.to, len(owned), len(moved))
		}
		for id, n := range moved {
			if n != 1 || !owned[id] {
				t.Fatalf("%d->%d: account %d present %d times (owned before: %v)", c.from, c.to, id, n, owned[id])
			}
		}

		// Phase 2: the new cluster adopts the snapshots and finishes
		// the feed partitioned the new way.
		union := make(map[osn.AccountID]int)
		for _, snap := range out {
			if snap.Seq != uint64(cut) {
				t.Fatalf("%d->%d: output stamped seq %d, want barrier %d", c.from, c.to, snap.Seq, cut)
			}
			p2, resume, err := NewPipelineFromSnapshot(rule, nil, snap)
			if err != nil {
				t.Fatalf("%d->%d: restore partition %d/%d: %v", c.from, c.to, snap.Part, snap.Parts, err)
			}
			if resume != uint64(cut)+1 {
				t.Fatalf("%d->%d: resume = %d, want %d", c.from, c.to, resume, cut+1)
			}
			part, parts := p2.part, p2.parts
			p2.Ingest(Batch{Events: partitionSlice(events[cut:], part, parts)})
			p2.Close()
			for _, id := range p2.FlaggedIDs() {
				if parts > 0 && osn.Partition(id, parts) != part {
					t.Fatalf("%d->%d: partition %d flagged foreign account %d", c.from, c.to, part, id)
				}
				union[id]++
			}
		}
		got := make([]osn.AccountID, 0, len(union))
		for id, n := range union {
			if n != 1 {
				t.Fatalf("%d->%d: account %d flagged by %d new partitions", c.from, c.to, id, n)
			}
			got = append(got, id)
		}
		got = sortedIDs(got)
		if len(got) != len(want) {
			t.Fatalf("%d->%d: union flagged %d accounts, single run flagged %d", c.from, c.to, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d->%d: flag sets differ at %d: %d vs %d", c.from, c.to, i, got[i], want[i])
			}
		}
	}
}

// TestRebalanceSplitMergeRoundTrip: splitting a campaign K ways and
// merging back to one snapshot reproduces the unpartitioned
// pipeline's snapshot byte for byte — the owner's copy of every
// account carries the account's complete counters (any event touching
// an account is also delivered to its owner), so no state is lost to
// the support copies the split drops.
func TestRebalanceSplitMergeRoundTrip(t *testing.T) {
	pop := campaignLog(t, 67)
	events := pop.Net.Events()
	rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())
	cut := len(events) * 2 / 3

	whole := NewPipeline(rule, nil, WithGraphReconstruction())
	whole.Ingest(Batch{Events: events[:cut], LastSeq: uint64(cut)})
	wantSnap := whole.Snapshot()
	whole.Close()
	wantJSON, err := json.Marshal(wantSnap)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{2, 4} {
		snaps := make([]*PipelineSnapshot, k)
		for part := 0; part < k; part++ {
			p := NewPipeline(rule, nil, WithGraphReconstruction(), WithPartition(part, k))
			p.Ingest(Batch{Events: partitionSlice(events[:cut], part, k), LastSeq: uint64(cut)})
			snaps[part] = p.Snapshot()
			p.Close()
		}
		merged, err := RebalanceSnapshots(snaps, 1)
		if err != nil {
			t.Fatalf("k=%d: merge: %v", k, err)
		}
		if len(merged) != 1 || merged[0].Part != 0 || merged[0].Parts != 0 {
			t.Fatalf("k=%d: merge-all must produce one unpartitioned snapshot, got %d stamped %d/%d",
				k, len(merged), merged[0].Part, merged[0].Parts)
		}
		gotJSON, err := json.Marshal(merged[0])
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("k=%d: split∘merge is not the identity: merged snapshot differs from the unpartitioned run's\nmerged: %d bytes\nwhole:  %d bytes",
				k, len(gotJSON), len(wantJSON))
		}
		// The merged form restores as an unpartitioned pipeline —
		// including under the normalized WithPartition(0, 1) spelling.
		p, resume, err := NewPipelineFromSnapshot(rule, nil, merged[0], WithPartition(0, 1))
		if err != nil {
			t.Fatalf("k=%d: restore merged: %v", k, err)
		}
		if resume != uint64(cut)+1 {
			t.Fatalf("k=%d: merged resume = %d, want %d", k, resume, cut+1)
		}
		p.Close()
	}
}

// TestRebalanceIdentity: K' == K re-keys every verdict and every
// owned account back to its current partition and drops only the
// foreign support copies.
func TestRebalanceIdentity(t *testing.T) {
	const k = 3
	seq := uint64(500)
	owned := make([]osn.AccountID, k)
	for p := 0; p < k; p++ {
		owned[p] = idOwnedBy(t, p, k)
	}
	snaps := make([]*PipelineSnapshot, k)
	for p := 0; p < k; p++ {
		accs := []AccountSnapshot{{State: features.AccountState{ID: owned[p], OutSent: p + 1}, Seen: p}}
		// A foreign support copy of another partition's account, as a
		// real partitioned pipeline would hold.
		accs = append(accs, AccountSnapshot{State: features.AccountState{ID: owned[(p+1)%k], InReceived: 9}})
		snaps[p] = &PipelineSnapshot{
			Version: SnapshotVersion, Seq: seq, Part: p, Parts: k,
			Accounts: accs,
			Flags:    []Flag{{ID: owned[p], At: 7}},
		}
	}
	out, err := RebalanceSnapshots(snaps, k)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < k; p++ {
		s := out[p]
		if s.Part != p || s.Parts != k || s.Seq != seq {
			t.Fatalf("partition %d restamped as %d/%d seq %d", p, s.Part, s.Parts, s.Seq)
		}
		if len(s.Accounts) != 1 || s.Accounts[0].State.ID != owned[p] ||
			s.Accounts[0].State.OutSent != p+1 || s.Accounts[0].Seen != p {
			t.Fatalf("partition %d accounts after identity re-key: %+v", p, s.Accounts)
		}
		if len(s.Flags) != 1 || s.Flags[0].ID != owned[p] {
			t.Fatalf("partition %d flags after identity re-key: %+v", p, s.Flags)
		}
	}
}

// TestRebalanceCrossPartitionFlag: a verdict may sit in one source
// snapshot while the account's counters sit in another (the flag rode
// an earlier shape's ownership); the merge pools both and the account
// arrives at its new owner whole — state and verdict together.
func TestRebalanceCrossPartitionFlag(t *testing.T) {
	const k = 2
	seq := uint64(42)
	id := idOwnedBy(t, 0, k)
	snaps := []*PipelineSnapshot{
		{Version: SnapshotVersion, Seq: seq, Parts: k, Part: 0,
			Accounts: []AccountSnapshot{{State: features.AccountState{ID: id, OutSent: 3}}}},
		{Version: SnapshotVersion, Seq: seq, Parts: k, Part: 1,
			Flags: []Flag{{ID: id, At: 5}}},
	}
	for _, to := range []int{1, 3} {
		out, err := RebalanceSnapshots(snaps, to)
		if err != nil {
			t.Fatalf("to=%d: %v", to, err)
		}
		np := osn.Partition(id, to)
		if to == 1 {
			np = 0
		}
		s := out[np]
		if len(s.Accounts) != 1 || s.Accounts[0].State.ID != id {
			t.Fatalf("to=%d: account state did not land with its new owner: %+v", to, s.Accounts)
		}
		if len(s.Flags) != 1 || s.Flags[0].ID != id {
			t.Fatalf("to=%d: flag did not land with its new owner: %+v", to, s.Flags)
		}
		for p, other := range out {
			if p == int(np) {
				continue
			}
			if len(other.Accounts) != 0 || len(other.Flags) != 0 {
				t.Fatalf("to=%d: partition %d holds strays: %+v %+v", to, p, other.Accounts, other.Flags)
			}
		}
	}
}

// TestRebalanceRejectsMixedSets: inputs that are not one campaign's
// complete partition cut must be refused, not silently merged.
func TestRebalanceRejectsMixedSets(t *testing.T) {
	const k = 2
	id0, id1 := idOwnedBy(t, 0, k), idOwnedBy(t, 1, k)
	mk := func(part int, seq uint64) *PipelineSnapshot {
		return &PipelineSnapshot{Version: SnapshotVersion, Seq: seq, Parts: k, Part: part}
	}
	cases := []struct {
		name  string
		snaps []*PipelineSnapshot
		to    int
		want  string
	}{
		{"empty set", nil, 2, "at least one"},
		{"zero target", []*PipelineSnapshot{mk(0, 9), mk(1, 9)}, 0, "into 0 partitions"},
		{"nil snapshot", []*PipelineSnapshot{mk(0, 9), nil}, 2, "nil snapshot"},
		{"mixed barriers", []*PipelineSnapshot{mk(0, 9), mk(1, 10)}, 2, "mixed barriers"},
		{"duplicate partition", []*PipelineSnapshot{mk(0, 9), mk(0, 9)}, 2, "two snapshots"},
		{"wrong group stamp", []*PipelineSnapshot{mk(0, 9),
			{Version: SnapshotVersion, Seq: 9, Parts: 3, Part: 1}}, 2, "in a set of"},
		{"unpartitioned in a set", []*PipelineSnapshot{mk(0, 9),
			{Version: SnapshotVersion, Seq: 9}}, 2, "in a set of"},
		{"version mismatch", []*PipelineSnapshot{mk(0, 9),
			{Version: SnapshotVersion + 1, Seq: 9, Parts: k, Part: 1}}, 2, "version"},
		{"mixed cadence", []*PipelineSnapshot{mk(0, 9),
			{Version: SnapshotVersion, Seq: 9, Parts: k, Part: 1, CheckEvery: 4}}, 2, "cadence"},
		{"duplicate verdicts", []*PipelineSnapshot{
			{Version: SnapshotVersion, Seq: 9, Parts: k, Part: 0, Flags: []Flag{{ID: id0}}},
			{Version: SnapshotVersion, Seq: 9, Parts: k, Part: 1, Flags: []Flag{{ID: id0}}},
		}, 2, "flagged in more than one"},
	}
	_ = id1
	for _, tc := range cases {
		_, err := RebalanceSnapshots(tc.snaps, tc.to)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
