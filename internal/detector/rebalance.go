// Live-rebalance state surgery: re-keying a campaign's K
// partition-stamped snapshots into K' snapshots, one per new
// partition, all cut at the same feed sequence (the cutover barrier).
//
// The flat account list makes this mechanical, with one subtlety:
// a partitioned pipeline also tracks *foreign* accounts — support
// state created by cross-partition events it received for its own
// accounts' features (osn.PartitionDelivers). That support state is
// authoritative only in the account's owning partition (any event
// touching account X anywhere is also delivered to X's owner, and
// verdict evaluation reads only the owned account's own counters), so
// the split keeps exactly the owner's copy of every account and drops
// the rest. The new partitions rebuild their own support state
// organically from the feed after the cutover — it is a cache of the
// future feed, not history.

package detector

import (
	"fmt"
	"sort"

	"sybilwild/internal/osn"
)

// RebalanceSnapshots re-keys one campaign's complete set of partition
// snapshots — one per partition of a K-way cluster, all stamped at
// the same sequence (the cutover barrier) — into newParts snapshots
// partitioned by osn.Partition over the new group size. Each account's
// authoritative state (the copy held by its old owner) and each
// verdict moves to the account's new owner; every other copy is
// dropped. The inputs may arrive in any order (they are matched by
// their Part stamp); a single unpartitioned snapshot is accepted as
// the K=1 case. newParts == 1 merges everything back into one
// unpartitioned snapshot (stamped 0/0, the normalized form
// WithPartition(0, 1) restores).
//
// The output shares the input's graph snapshot by reference — the
// reconstructed graph is identical in every partition at the same
// barrier, so the first input's is reused, not copied. Restore copies
// it into each new pipeline (graph.FromSnapshot), so sharing is safe
// as long as callers treat snapshots as immutable, which everything
// in this package does.
func RebalanceSnapshots(snaps []*PipelineSnapshot, newParts int) ([]*PipelineSnapshot, error) {
	if newParts < 1 {
		return nil, fmt.Errorf("detector: rebalance into %d partitions", newParts)
	}
	k := len(snaps)
	if k < 1 {
		return nil, fmt.Errorf("detector: rebalance needs at least one source snapshot")
	}
	// Validate the set as one campaign cut: one snapshot per source
	// partition, every one at the same barrier with the same schema,
	// cadence, and graph presence.
	byPart := make([]*PipelineSnapshot, k)
	ref := snaps[0]
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("detector: rebalance: nil snapshot at index %d", i)
		}
		if s.Version != SnapshotVersion {
			return nil, fmt.Errorf("detector: rebalance: snapshot version %d, want %d", s.Version, SnapshotVersion)
		}
		switch {
		case k == 1 && s.Parts == 0:
			// A single unpartitioned snapshot is the K=1 whole-feed case.
		case s.Parts != k:
			return nil, fmt.Errorf("detector: rebalance: snapshot stamped %d/%d in a set of %d", s.Part, s.Parts, k)
		case s.Part < 0 || s.Part >= k:
			return nil, fmt.Errorf("detector: rebalance: snapshot stamped %d/%d", s.Part, s.Parts)
		}
		if byPart[s.Part] != nil {
			return nil, fmt.Errorf("detector: rebalance: two snapshots for partition %d/%d", s.Part, k)
		}
		byPart[s.Part] = s
		if s.Seq != ref.Seq {
			return nil, fmt.Errorf("detector: rebalance: mixed barriers: partition %d cut at %d, partition %d at %d — not one campaign cut",
				s.Part, s.Seq, ref.Part, ref.Seq)
		}
		if s.CheckEvery != ref.CheckEvery {
			return nil, fmt.Errorf("detector: rebalance: mixed check cadence (%d vs %d)", s.CheckEvery, ref.CheckEvery)
		}
		if (s.Graph == nil) != (ref.Graph == nil) {
			return nil, fmt.Errorf("detector: rebalance: mixed graph presence across partitions")
		}
	}

	outAccounts := make([][]AccountSnapshot, newParts)
	outFlags := make([][]Flag, newParts)
	flagged := make(map[osn.AccountID]bool)
	for _, s := range byPart {
		for _, a := range s.Accounts {
			if osn.Partition(a.State.ID, k) != s.Part {
				continue // foreign support copy; the owner's copy is authoritative
			}
			np := osn.Partition(a.State.ID, newParts)
			outAccounts[np] = append(outAccounts[np], a)
		}
		for _, f := range s.Flags {
			// Verdicts are exactly-once across the old cluster, so a
			// duplicate here means the inputs are not one campaign's
			// partitions (e.g. cuts from different group shapes mixed).
			if flagged[f.ID] {
				return nil, fmt.Errorf("detector: rebalance: account %d flagged in more than one source snapshot", f.ID)
			}
			flagged[f.ID] = true
			np := osn.Partition(f.ID, newParts)
			outFlags[np] = append(outFlags[np], f)
		}
	}

	out := make([]*PipelineSnapshot, newParts)
	for p := 0; p < newParts; p++ {
		snap := &PipelineSnapshot{
			Version:    SnapshotVersion,
			Seq:        ref.Seq,
			Part:       p,
			Parts:      newParts,
			CheckEvery: ref.CheckEvery,
			Accounts:   outAccounts[p],
			Flags:      outFlags[p],
			Graph:      ref.Graph,
		}
		if newParts == 1 {
			// The merged whole-feed snapshot is unpartitioned — the
			// normalized form WithPartition(0, 1) stamps and restores.
			snap.Part, snap.Parts = 0, 0
		}
		// Deterministic order, same contract as Pipeline.Snapshot:
		// identical state re-keys to byte-identical snapshots.
		sort.Slice(snap.Accounts, func(i, j int) bool {
			return snap.Accounts[i].State.ID < snap.Accounts[j].State.ID
		})
		sort.Slice(snap.Flags, func(i, j int) bool { return snap.Flags[i].ID < snap.Flags[j].ID })
		out[p] = snap
	}
	return out, nil
}
