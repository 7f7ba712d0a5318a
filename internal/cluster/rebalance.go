// Live cluster rebalance, coordinator side: resize a running K-way
// detection cluster to K' workers with no restart and no event judged
// twice or dropped. The broker owns the consistent cut (its sequencer
// defines the order), the coordinator owns the state surgery:
//
//  1. PrepareRebalance fences the old group shape at a barrier B —
//     every old worker is served exactly what it is owed through B,
//     then handed off (stream.ErrRebalanced), upon which it offers its
//     snapshot cut precisely at B.
//  2. The coordinator polls the rendezvous until all K snapshots sit
//     at B (a fenced subscription cannot pass B, so seq == B is an
//     exact rendezvous, not a race; a Worker offers its retirement
//     snapshot with or without Handoff), re-keys them into K' snapshots
//     (detector.RebalanceSnapshots), and offers the new set.
//  3. CommitRebalance unfences the new shape; new workers Start with
//     Handoff and adopt their snapshot, subscribing from B+1.
//
// The feed never pauses: post-barrier events keep flowing to the
// broker (and its spool) during the cutover; the new owners simply
// start behind and catch up.

package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"sybilwild/internal/detector"
	"sybilwild/internal/stream"
)

// Rebalance coordinates a live K=from → K'=to cutover against the
// broker at addr and returns the barrier sequence: old workers' state
// ends at it, new workers (Start with Handoff: true) resume from
// barrier+1. It blocks until every old partition's snapshot has
// rendezvoused at the barrier, the re-keyed snapshots are offered, and
// the commit lands — or until timeout, leaving the old shape fenced
// (re-running Rebalance with the same shapes resumes the same cutover:
// prepare is idempotent).
func Rebalance(addr string, from, to int, timeout time.Duration) (uint64, error) {
	if from < 2 || to < 1 || from == to {
		return 0, fmt.Errorf("cluster: invalid rebalance %d -> %d", from, to)
	}
	barrier, err := stream.PrepareRebalance(addr, from, to)
	if err != nil {
		return 0, err
	}
	deadline := time.Now().Add(timeout)
	snaps := make([]*detector.PipelineSnapshot, from)
	for p := 0; p < from; p++ {
		for {
			seq, data, err := stream.FetchSnapshot(addr, p, from)
			if err == nil && seq >= barrier {
				if seq > barrier {
					// Impossible while the fence holds (no old worker
					// sees past the barrier) — a snapshot beyond it means
					// the rendezvous was polluted and the cut is invalid.
					return 0, fmt.Errorf("cluster: partition %d/%d offered a snapshot at %d, past the barrier %d",
						p, from, seq, barrier)
				}
				var snap detector.PipelineSnapshot
				if err := json.Unmarshal(data, &snap); err != nil {
					return 0, fmt.Errorf("cluster: decode partition %d/%d snapshot: %w", p, from, err)
				}
				snaps[p] = &snap
				break
			}
			if time.Now().After(deadline) {
				if err != nil {
					return 0, fmt.Errorf("cluster: partition %d/%d never offered a snapshot: %w", p, from, err)
				}
				return 0, fmt.Errorf("cluster: partition %d/%d snapshot stuck at %d, barrier is %d",
					p, from, seq, barrier)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	out, err := detector.RebalanceSnapshots(snaps, to)
	if err != nil {
		return 0, err
	}
	for i, snap := range out {
		data, err := json.Marshal(snap)
		if err != nil {
			return 0, fmt.Errorf("cluster: encode rebalanced snapshot %d/%d: %w", i, to, err)
		}
		// A K'=1 output is stamped unpartitioned (0/0); its rendezvous
		// key is still (0, 1), where a single-worker Start looks.
		if err := stream.OfferSnapshot(addr, "", i, to, snap.Seq, data); err != nil {
			return 0, err
		}
	}
	if err := stream.CommitRebalance(addr, from, to, barrier); err != nil {
		return 0, err
	}
	return barrier, nil
}
