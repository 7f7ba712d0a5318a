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
// off, offering its snapshots at the barrier; a 3-way group adopts
// that cut, resumes from barrier+1 and splits the rest exactly-once;
// and the rebalance, committed by the new owners' offers, lands in the
// stats audit.
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

	for p, c := range old {
		if err := OfferSnapshot(srv.Addr(), c.Session(), p, oldK, barrier, []byte(fmt.Sprintf("%d/%d", p, oldK))); err != nil {
			t.Fatalf("old partition %d's retirement offer: %v", p, err)
		}
	}

	// New owners adopt the cut and resume from barrier+1: their union
	// must be exactly the post-barrier slice, each sequence judged by
	// exactly one owner.
	owners := make(map[uint64]int)
	for p := 0; p < newK; p++ {
		c := adoptCut(t, srv.Addr(), p, newK, oldK, barrier)
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
		if st := srv.Stats(); st.Rebalances[0].Committed {
			t.Fatalf("rebalance committed before new partition %d offered", p)
		}
		if err := OfferSnapshot(srv.Addr(), c.Session(), p, newK, c.LastSeq(), []byte("re-keyed")); err != nil {
			t.Fatalf("new partition %d's offer: %v", p, err)
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
// exactly to the barrier then handed off, an adopting hello of the new
// shape refused (ErrCutPending) until every old snapshot is at the
// barrier, and the old shape staying fenced after the commit while the
// new shape admits.
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

	// The backfill retired 1/2 at the barrier; 0/2 was never offered.
	if err := OfferSnapshot(srv.Addr(), c.Session(), 1, K, barrier, []byte("1/2")); err != nil {
		t.Fatal(err)
	}
	if _, err := DialAdopt(srv.Addr(), 0, WithPartition(0, 3)); !errors.Is(err, ErrCutPending) || !strings.Contains(err.Error(), "1 of partition group 2's snapshots") {
		t.Fatalf("adopting an incomplete cut: err = %v, want ErrCutPending naming 1 of 2", err)
	}
	c0, err := DialFrom(srv.Addr(), 1, WithPartition(0, K))
	if err != nil {
		t.Fatalf("pre-barrier backfill refused: %v", err)
	}
	for !errors.Is(err, ErrRebalanced) {
		_, err = c0.RecvBatch()
	}
	if err := OfferSnapshot(srv.Addr(), c0.Session(), 0, K, barrier, []byte("0/2")); err != nil {
		t.Fatal(err)
	}
	c0.Close()
	for p := 0; p < 3; p++ {
		c := adoptCut(t, srv.Addr(), p, 3, K, barrier)
		if err := OfferSnapshot(srv.Addr(), c.Session(), p, 3, barrier, []byte("re-keyed")); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if got, want := srv.Stats().Rebalances[0], (RebalanceStats{From: K, To: 3, Barrier: barrier, Committed: true}); got != want {
		t.Fatalf("rebalance audit = %+v, want %+v", got, want)
	}

	// The old shape stays fenced forever; the new shape admits.
	if _, err := Dial(srv.Addr(), WithPartition(0, K)); err == nil {
		t.Fatal("fenced shape admitted a fresh join after commit")
	}
	waitDetached(t, srv)
	c3, err := Dial(srv.Addr(), WithPartition(0, 3))
	if err != nil {
		t.Fatalf("new shape refused after commit: %v", err)
	}
	c3.Close()
}

// TestRebalanceRefusedOnEmptyFeed: an empty feed has no barrier to cut
// at (0 would read as "no fence"), so prepare is refused and installs
// nothing: a subscriber of the shape keeps its whole feed, and fresh
// joins of the shape are still admitted.
func TestRebalanceRefusedOnEmptyFeed(t *testing.T) {
	leakCheck(t)
	evs := partEvents(50, 13)
	srv, _ := spooledServer(t, 64)
	c, err := Dial(srv.Addr(), WithPartition(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitClients(t, srv, 1)
	if b, err := PrepareRebalance(srv.Addr(), 2, 3); err == nil || !strings.Contains(err.Error(), "feed is empty") {
		t.Fatalf("prepare on an empty feed = (%d, %v), want a refusal", b, err)
	}
	for _, ev := range evs {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	want := wantSeqs(evs, 0, 2)
	var got []uint64
	for len(got) < len(want) {
		if _, err := c.RecvBatch(); err != nil {
			t.Fatalf("subscriber of the shape after the refused prepare: %v", err)
		}
		got = append(got, c.LastBatchSeqs()...)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("subscriber received %v, want %v", got, want)
	}
	c1, err := Dial(srv.Addr(), WithPartition(1, 2))
	if err != nil {
		t.Fatalf("fresh join of the shape after the refused prepare: %v", err)
	}
	c1.Close()
	if reb := srv.Stats().Rebalances; len(reb) != 0 {
		t.Fatalf("refused prepare is in the audit: %+v", reb)
	}
}

// TestRebalanceBackToRetiredShape: a chained rebalance returns to a
// group shape an earlier one retired. While the 3→2 cutover is in
// flight the new 2-shape owners are admitted past the stale fence the
// 2→3 commit left, adopt the 3-shape cut and offer, although 2 was
// retired; their offers commit it, and the 3-shape snapshots go.
func TestRebalanceBackToRetiredShape(t *testing.T) {
	leakCheck(t)
	srv, _ := spooledServer(t, 64)
	cutover := func(olds []string, to int, events int) ([]string, uint64) {
		t.Helper()
		for i := 0; i < events; i++ {
			srv.BroadcastBatch([]osn.Event{testEvent(i)})
		}
		barrier, err := PrepareRebalance(srv.Addr(), len(olds), to)
		if err != nil {
			t.Fatal(err)
		}
		return cutOver(t, srv, olds, to, barrier), barrier
	}
	olds := []string{owner(t, srv, 0, 2), owner(t, srv, 1, 2)}
	threes, _ := cutover(olds, 3, 40)
	_, barrier := cutover(threes, 2, 40)
	if err := OfferSnapshot(srv.Addr(), threes[0], 0, 3, barrier, []byte("stale")); err == nil || !strings.Contains(err.Error(), "no session owns") {
		t.Fatalf("offer for the shape retired second: err = %v, want a refusal", err)
	}
	c, err := DialAdopt(srv.Addr(), 0, WithPartition(0, 2))
	if err != nil {
		t.Fatalf("worker on 0/2 after the chain: %v", err)
	}
	defer c.Close()
	want := fmt.Sprintf("0/2 at %d", barrier)
	if seq, data := c.Adopted(); seq != barrier || len(data) != 1 || string(data[0]) != want || c.LastSeq() != barrier {
		t.Fatalf("adopted (%d, %q) at cursor %d, want (%d, %s) at %d", seq, data, c.LastSeq(), barrier, want, barrier)
	}
}

// adoptCut dials the new owner of part/parts with adoption and checks
// that its handshake handed over the old group's cut: the from-way
// group's snapshots at the barrier, in partition order, offered as
// "p/from", with the cursor at the barrier.
func adoptCut(t *testing.T, addr string, part, parts, from int, barrier uint64) *Client {
	t.Helper()
	c, err := DialAdopt(addr, 0, WithPartition(part, parts))
	if err != nil {
		t.Fatalf("new partition %d/%d: %v", part, parts, err)
	}
	seq, data := c.Adopted()
	if seq != barrier || len(data) != from || c.LastSeq() != barrier {
		t.Fatalf("new partition %d/%d adopted %d payloads at %d with the cursor at %d, want %d at the barrier %d",
			part, parts, len(data), seq, c.LastSeq(), from, barrier)
	}
	for p, d := range data {
		if want := fmt.Sprintf("%d/%d", p, from); string(d) != want {
			t.Fatalf("new partition %d/%d: cut payload %d is %q, want %q", part, parts, p, d, want)
		}
	}
	return c
}

// cutOver completes a prepared rebalance the way workers do: each old
// owner (olds[p], the session that owns p/len(olds)) offers "p/from" at
// the barrier, then each new worker adopts the cut (adoptCut) and
// offers "p/to at barrier" there, the last offer committing the
// rebalance. It returns the new owners' sessions, detached.
func cutOver(t *testing.T, srv *Server, olds []string, to int, barrier uint64) []string {
	t.Helper()
	from := len(olds)
	for p, sess := range olds {
		if err := OfferSnapshot(srv.Addr(), sess, p, from, barrier, []byte(fmt.Sprintf("%d/%d", p, from))); err != nil {
			t.Fatalf("%d→%d: old owner %d's offer: %v", from, to, p, err)
		}
	}
	news := make([]string, to)
	for p := range news {
		c := adoptCut(t, srv.Addr(), p, to, from, barrier)
		if err := OfferSnapshot(srv.Addr(), c.Session(), p, to, barrier, []byte(fmt.Sprintf("%d/%d at %d", p, to, barrier))); err != nil {
			t.Fatalf("%d→%d: new owner %d's offer: %v", from, to, p, err)
		}
		news[p] = c.Session()
		closeDetached(t, srv, c)
	}
	return news
}
