package stream

import (
	"errors"
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

// TestRebalanceClaimAndStatus covers the standby-promotion exchanges:
// rstatus reflecting liveness, snapshots and fences, and rclaim's
// exactly-one-winner admission.
func TestRebalanceClaimAndStatus(t *testing.T) {
	leakCheck(t)
	const K = 2
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st, err := QueryPartition(srv.Addr(), 0, K)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seen || st.Connected != 0 || st.SnapshotSeq != 0 || st.Barrier != 0 {
		t.Fatalf("virgin partition status = %+v, want zero", st)
	}

	c, err := Dial(srv.Addr(), WithPartition(0, K))
	if err != nil {
		t.Fatal(err)
	}
	waitClients(t, srv, 1)
	if st, _ = QueryPartition(srv.Addr(), 0, K); !st.Seen || st.Connected != 1 {
		t.Fatalf("status with live subscriber = %+v, want seen, 1 connected", st)
	}
	if err := ClaimPartition(srv.Addr(), 0, K, "standby-a"); err == nil {
		t.Fatal("claim granted while a session is connected")
	}

	c.Kick()
	waitDetached(t, srv)
	if st, _ = QueryPartition(srv.Addr(), 0, K); !st.Seen || st.Connected != 0 {
		t.Fatalf("status after disconnect = %+v, want seen, 0 connected", st)
	}
	if err := ClaimPartition(srv.Addr(), 0, K, "standby-a"); err != nil {
		t.Fatalf("claim on a dead partition: %v", err)
	}
	if err := ClaimPartition(srv.Addr(), 0, K, "standby-b"); err == nil {
		t.Fatal("second standby's claim granted while the first is fresh")
	}
	if _, err := Dial(srv.Addr(), WithPartition(0, K), WithSessionID("standby-b")); err == nil ||
		!strings.Contains(err.Error(), "claimed") {
		t.Fatalf("unclaimed session admitted onto a claimed key: %v", err)
	}
	c2, err := Dial(srv.Addr(), WithPartition(0, K), WithSessionID("standby-a"))
	if err != nil {
		t.Fatalf("claim holder refused its key: %v", err)
	}
	waitClients(t, srv, 1)
	if err := ClaimPartition(srv.Addr(), 0, K, "standby-c"); err == nil {
		t.Fatal("claim granted while the promoted standby is connected")
	}
	c2.Close()

	if err := OfferSnapshot(srv.Addr(), 0, K, 42, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	srv.BroadcastBatch([]osn.Event{{Type: osn.EvMessage, Actor: 1, Target: 2}})
	if _, err := PrepareRebalance(srv.Addr(), K, 1); err != nil {
		t.Fatal(err)
	}
	if st, _ = QueryPartition(srv.Addr(), 0, K); st.SnapshotSeq != 42 || st.Barrier != 1 {
		t.Fatalf("status after offer+prepare = %+v, want snapshot 42, barrier 1", st)
	}
}
