package stream

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sybilwild/internal/osn"
)

// TestRebalanceCutover is the full broker-coordinated cutover: a 2-way
// partition group drains exactly its pre-barrier slice and is handed
// off, a 3-way group adopts from barrier+1 and splits the rest
// exactly-once, and the rebalance lands in the stats audit.
func TestRebalanceCutover(t *testing.T) {
	leakCheck(t)
	const oldK, newK, pre, post = 2, 3, 900, 400
	evs := partEvents(pre+post, 11)
	srv, _ := spooledServer(t, 64, withMaxBatch(32))

	old := make([]*Client, oldK)
	for p := 0; p < oldK; p++ {
		c, err := Dial(srv.Addr(), WithPartition(p, oldK))
		if err != nil {
			t.Fatalf("dial partition %d: %v", p, err)
		}
		defer c.Close()
		old[p] = c
	}
	waitClients(t, srv, oldK)

	type result struct {
		seqs    []uint64
		last    uint64
		barrier uint64
		nparts  int
		err     error
	}
	results := make([]result, oldK)
	var wg sync.WaitGroup
	for p, c := range old {
		wg.Add(1)
		go func(p int, c *Client) {
			defer wg.Done()
			r := &results[p]
			for {
				_, err := c.RecvBatch()
				if errors.Is(err, ErrRebalanced) {
					r.last = c.LastSeq()
					r.barrier, r.nparts, _ = c.Rebalanced()
					return
				}
				if err != nil {
					r.err = err
					return
				}
				r.seqs = append(r.seqs, c.LastBatchSeqs()...)
			}
		}(p, c)
	}

	for _, ev := range evs[:pre] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	barrier, err := PrepareRebalance(srv.Addr(), oldK, newK)
	if err != nil {
		t.Fatal(err)
	}
	if barrier != pre {
		t.Fatalf("barrier = %d, want the head at prepare time %d", barrier, pre)
	}
	// Post-barrier traffic flows while the old group drains out — the
	// feed never pauses.
	for _, ev := range evs[pre:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	wg.Wait()
	for p := range results {
		r := results[p]
		if r.err != nil {
			t.Fatalf("old partition %d: %v", p, r.err)
		}
		if r.barrier != barrier || r.nparts != newK || r.last != barrier {
			t.Fatalf("old partition %d handed off at (barrier=%d nparts=%d last=%d), want (%d, %d, %d)",
				p, r.barrier, r.nparts, r.last, barrier, newK, barrier)
		}
		want := wantSeqs(evs[:pre], p, oldK)
		if len(r.seqs) != len(want) {
			t.Fatalf("old partition %d received %d events before the barrier, contract says %d",
				p, len(r.seqs), len(want))
		}
		for i, seq := range r.seqs {
			if seq != want[i] {
				t.Fatalf("old partition %d event %d has seq %d, want %d", p, i, seq, want[i])
			}
		}
	}

	if err := CommitRebalance(srv.Addr(), oldK, newK, barrier); err != nil {
		t.Fatal(err)
	}

	// New owners adopt from barrier+1: their union must be exactly the
	// post-barrier slice, each sequence judged by exactly one owner.
	owners := make(map[uint64]int)
	for p := 0; p < newK; p++ {
		c, err := DialFrom(srv.Addr(), barrier+1, WithPartition(p, newK))
		if err != nil {
			t.Fatalf("new partition %d: %v", p, err)
		}
		var want []uint64
		for _, seq := range wantSeqs(evs, p, newK) {
			if seq > barrier {
				want = append(want, seq)
			}
		}
		var got []uint64
		for len(got) < len(want) {
			_, err := c.RecvBatch()
			if err != nil {
				t.Fatalf("new partition %d recv: %v", p, err)
			}
			got = append(got, c.LastBatchSeqs()...)
		}
		for i, seq := range got {
			if seq != want[i] {
				t.Fatalf("new partition %d event %d has seq %d, want %d", p, i, seq, want[i])
			}
			// Delivery legitimately replicates support events; the
			// exactly-once property is about judging, which follows the
			// actor's owner.
			if osn.Partition(evs[seq-1].Actor, newK) == p {
				if prev, dup := owners[seq]; dup {
					t.Fatalf("seq %d judged by both new partitions %d and %d", seq, prev, p)
				}
				owners[seq] = p
			}
		}
		c.Close()
	}
	for seq := barrier + 1; seq <= uint64(pre+post); seq++ {
		if _, ok := owners[seq]; !ok {
			t.Fatalf("seq %d judged by no new owner", seq)
		}
	}

	st := srv.Stats()
	if len(st.Rebalances) != 1 {
		t.Fatalf("stats list %d rebalances, want 1: %+v", len(st.Rebalances), st.Rebalances)
	}
	if got, want := st.Rebalances[0], (RebalanceStats{From: oldK, To: newK, Barrier: barrier, Committed: true}); got != want {
		t.Fatalf("rebalance audit = %+v, want %+v", got, want)
	}
}

// TestRebalanceFenceAdmission pins the fencing rules: idempotent
// prepare, conflicting prepare rejected, fresh joins and beyond-barrier
// resumes of a fenced shape refused, a pre-barrier backfill drained
// exactly to the barrier then handed off, commit validation, and the
// old shape staying fenced after commit while the new shape admits.
func TestRebalanceFenceAdmission(t *testing.T) {
	leakCheck(t)
	const K = 2
	evs := partEvents(70, 12)
	srv, _ := spooledServer(t, 16, withMaxBatch(8))
	for _, ev := range evs[:50] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	barrier, err := PrepareRebalance(srv.Addr(), K, 3)
	if err != nil {
		t.Fatal(err)
	}
	if barrier != 50 {
		t.Fatalf("barrier = %d, want 50", barrier)
	}
	if b2, err := PrepareRebalance(srv.Addr(), K, 3); err != nil || b2 != barrier {
		t.Fatalf("idempotent re-prepare = (%d, %v), want (%d, nil)", b2, err, barrier)
	}
	if _, err := PrepareRebalance(srv.Addr(), K, 4); err == nil || !strings.Contains(err.Error(), "already rebalancing") {
		t.Fatalf("conflicting prepare: err = %v, want 'already rebalancing'", err)
	}
	if _, err := PrepareRebalance(srv.Addr(), K, K); err == nil {
		t.Fatal("K→K prepare accepted; the shape must change")
	}
	for _, ev := range evs[50:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}

	if _, err := Dial(srv.Addr(), WithPartition(0, K)); err == nil || !strings.Contains(err.Error(), "rebalanced") {
		t.Fatalf("fresh join of fenced shape: err = %v, want a rebalanced rejection", err)
	}
	if _, err := DialResume(srv.Addr(), "ghost", barrier+2, WithPartition(0, K)); err == nil || !strings.Contains(err.Error(), "rebalanced") {
		t.Fatalf("beyond-barrier resume: err = %v, want a rebalanced rejection", err)
	}

	// A backfill below the barrier is still owed its pre-barrier slice:
	// it drains exactly to the barrier through the disk tier, then gets
	// the same hand-off as a live subscriber.
	c, err := DialFrom(srv.Addr(), 1, WithPartition(1, K))
	if err != nil {
		t.Fatalf("pre-barrier backfill refused: %v", err)
	}
	want := wantSeqs(evs[:50], 1, K)
	var got []uint64
	for {
		_, err := c.RecvBatch()
		if errors.Is(err, ErrRebalanced) {
			break
		}
		if err != nil {
			t.Fatalf("backfill recv: %v", err)
		}
		got = append(got, c.LastBatchSeqs()...)
	}
	if len(got) != len(want) {
		t.Fatalf("backfill received %d events, contract says %d below the barrier", len(got), len(want))
	}
	for i, seq := range got {
		if seq != want[i] {
			t.Fatalf("backfill event %d has seq %d, want %d", i, seq, want[i])
		}
	}
	if b, n, ok := c.Rebalanced(); !ok || b != barrier || n != 3 || c.LastSeq() != barrier {
		t.Fatalf("backfill hand-off = (%d, %d, %v) at cursor %d, want (%d, 3, true) at %d",
			b, n, ok, c.LastSeq(), barrier, barrier)
	}
	c.Close()

	if err := CommitRebalance(srv.Addr(), K, 3, barrier+1); err == nil {
		t.Fatal("commit with the wrong barrier accepted")
	}
	if err := CommitRebalance(srv.Addr(), 5, 2, 10); err == nil {
		t.Fatal("commit without a prepared rebalance accepted")
	}
	if err := CommitRebalance(srv.Addr(), K, 3, barrier); err != nil {
		t.Fatal(err)
	}
	if err := CommitRebalance(srv.Addr(), K, 3, barrier); err != nil {
		t.Fatalf("idempotent re-commit: %v", err)
	}

	// The old shape stays fenced forever; the new shape admits.
	if _, err := Dial(srv.Addr(), WithPartition(0, K)); err == nil {
		t.Fatal("fenced shape admitted a fresh join after commit")
	}
	c3, err := Dial(srv.Addr(), WithPartition(0, 3))
	if err != nil {
		t.Fatalf("new shape refused after commit: %v", err)
	}
	c3.Close()
}

// TestRebalanceBackToRetiredShape: a chained rebalance returns to a
// group shape an earlier one retired. While the 3→2 cutover is in
// flight the re-keyed 2-shape snapshots are taken, although 2 was
// retired; the commit makes them adoptable, and the 3-shape ones go.
func TestRebalanceBackToRetiredShape(t *testing.T) {
	leakCheck(t)
	srv, _ := spooledServer(t, 64)
	cutover := func(from, to int, events int) uint64 {
		t.Helper()
		for i := 0; i < events; i++ {
			srv.BroadcastBatch([]osn.Event{testEvent(i)})
		}
		barrier, err := PrepareRebalance(srv.Addr(), from, to)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < from; p++ { // the old owners retire at the barrier
			if err := OfferSnapshot(srv.Addr(), "", p, from, barrier, []byte(fmt.Sprintf("%d/%d", p, from))); err != nil {
				t.Fatalf("%d→%d: old owner %d's offer: %v", from, to, p, err)
			}
		}
		for p := 0; p < to; p++ { // the coordinator's re-keyed set
			if err := OfferSnapshot(srv.Addr(), "", p, to, barrier, []byte(fmt.Sprintf("%d/%d at %d", p, to, barrier))); err != nil {
				t.Fatalf("%d→%d: re-keyed offer %d: %v", from, to, p, err)
			}
		}
		if err := CommitRebalance(srv.Addr(), from, to, barrier); err != nil {
			t.Fatal(err)
		}
		return barrier
	}
	cutover(2, 3, 40)
	barrier := cutover(3, 2, 40)
	if err := OfferSnapshot(srv.Addr(), "", 0, 3, barrier, []byte("stale")); err == nil || !strings.Contains(err.Error(), "rebalanced") {
		t.Fatalf("offer for the shape retired second: err = %v, want a refusal", err)
	}
	c, err := DialAdopt(srv.Addr(), 0, WithPartition(0, 2))
	if err != nil {
		t.Fatalf("worker on 0/2 after the chain: %v", err)
	}
	defer c.Close()
	want := fmt.Sprintf("0/2 at %d", barrier)
	if seq, data := c.Adopted(); seq != barrier || string(data) != want || c.LastSeq() != barrier {
		t.Fatalf("adopted (%d, %q) at cursor %d, want (%d, %s) at %d", seq, data, c.LastSeq(), barrier, want, barrier)
	}
}
