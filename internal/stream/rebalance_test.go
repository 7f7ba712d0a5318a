package stream

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
)

// untilCutover reads c until the cutover record and returns the
// sequences of the events before it, the record's sequence and the
// record: what a worker of the retiring shape judges.
func untilCutover(c *Client) (before []uint64, at uint64, rec osn.Event, err error) {
	for {
		evs, err := c.RecvBatch()
		if err != nil {
			return before, 0, osn.Event{}, err
		}
		seqs := c.LastBatchSeqs()
		for i, ev := range evs {
			seq := c.LastSeq() - uint64(len(evs)-1-i)
			if seqs != nil {
				seq = seqs[i]
			}
			if ev.Type == osn.EvCutover {
				return before, seq, ev, nil
			}
			before = append(before, seq)
		}
	}
}

// TestRebalanceCutover is the full cutover: the prepare sequences the
// cutover record after the events already published, every partition
// of the 2-way group receives exactly its pre-barrier slice and then
// the record, and the old owners offer their snapshots at the barrier;
// a 3-way group adopts that cut, resumes from barrier+1 and splits the
// rest exactly-once; and the rebalance, committed by the new owners'
// offers, lands in the stats audit. Nobody's delivery is cut short.
func TestRebalanceCutover(t *testing.T) {
	leakCheck(t)
	const oldK, newK, pre, post = 2, 3, 900, 400
	evs := partEvents(pre+post, 11)
	record := osn.Event{Type: osn.EvCutover, Actor: oldK, Target: newK}
	feed := append(append(slices.Clone(evs[:pre]), record), evs[pre:]...)
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
		seqs []uint64
		at   uint64
		rec  osn.Event
		err  error
	}
	results := make([]result, oldK)
	var wg sync.WaitGroup
	for p, c := range old {
		wg.Add(1)
		go func(r *result, c *Client) {
			defer wg.Done()
			r.seqs, r.at, r.rec, r.err = untilCutover(c)
		}(&results[p], c)
	}

	for _, ev := range evs[:pre] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	barrier, err := PrepareRebalance(srv.Addr(), oldK, newK)
	if err != nil {
		t.Fatal(err)
	}
	if barrier != pre+1 {
		t.Fatalf("barrier = %d, want %d: the record follows the %d events published before the prepare", barrier, pre+1, pre)
	}
	// Post-barrier traffic flows while the old group reads on to the
	// record — the feed never pauses.
	for _, ev := range evs[pre:] {
		srv.BroadcastBatch([]osn.Event{ev})
	}
	wg.Wait()
	for p, r := range results {
		if r.err != nil {
			t.Fatalf("old partition %d: %v", p, r.err)
		}
		if r.at != barrier || r.rec != record {
			t.Fatalf("old partition %d met %+v at seq %d, want the record %+v at the barrier %d", p, r.rec, r.at, record, barrier)
		}
		if got, want := fmt.Sprint(r.seqs), fmt.Sprint(wantSeqs(evs[:pre], p, oldK)); got != want {
			t.Fatalf("old partition %d received %s before the record, contract says %s", p, got, want)
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
		for _, seq := range wantSeqs(feed, p, newK) {
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
			if osn.Partition(feed[seq-1].Actor, newK) == p {
				if prev, dup := owners[seq]; dup {
					t.Fatalf("seq %d judged by both new partitions %d and %d", seq, prev, p)
				}
				owners[seq] = p
			}
		}
		c.Close()
	}
	for seq := barrier + 1; seq <= uint64(len(feed)); seq++ {
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
// prepare, conflicting prepare refused, fresh joins and resumes past
// the barrier of a fenced shape refused as ErrRebalanced naming the
// cutover, a resume at the barrier admitted, a backfill from sequence 1
// reaching exactly its pre-barrier slice and then the record, an
// adopting hello of the new shape refused (ErrCutPending) until every
// old snapshot is at the barrier, and the old shape staying fenced
// after the commit while the new shape admits.
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
	if barrier != 51 {
		t.Fatalf("barrier = %d, want 51: the record follows the 50 events", barrier)
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

	wantReb := RebalancedError{From: K, To: 3, Barrier: barrier}
	for name, dial := range map[string]func() (*Client, error){
		"fresh join": func() (*Client, error) { return Dial(srv.Addr(), WithPartition(0, K)) },
		"resume at barrier+1": func() (*Client, error) {
			return DialResume(srv.Addr(), "ghost", barrier+1, WithPartition(0, K))
		},
		"resume past it": func() (*Client, error) {
			return DialResume(srv.Addr(), "ghost", barrier+2, WithPartition(0, K))
		},
	} {
		var reb *RebalancedError
		if _, err := dial(); !errors.Is(err, ErrRebalanced) || !errors.As(err, &reb) || *reb != wantReb {
			t.Fatalf("%s of the fenced shape: err = %v, want ErrRebalanced naming %+v", name, err, wantReb)
		}
	}
	c, err := DialResume(srv.Addr(), "ghost", barrier, WithPartition(0, K))
	if err != nil {
		t.Fatalf("resume at the barrier refused: %v", err)
	}
	if _, at, _, err := untilCutover(c); err != nil || at != barrier {
		t.Fatalf("resume at the barrier met the record at %d (%v), want %d first", at, err, barrier)
	}
	c.Close()

	// A backfill below the barrier is served its pre-barrier slice
	// through the disk tier, then the record, like a live subscriber.
	backfill := func(p int) *Client {
		t.Helper()
		c, err := DialFrom(srv.Addr(), 1, WithPartition(p, K))
		if err != nil {
			t.Fatalf("pre-barrier backfill of %d/%d refused: %v", p, K, err)
		}
		got, at, _, err := untilCutover(c)
		if err != nil || at != barrier {
			t.Fatalf("backfill of %d/%d met the record at %d (%v), want the barrier %d", p, K, at, err, barrier)
		}
		if want := wantSeqs(evs[:50], p, K); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("backfill of %d/%d received %v before the record, contract says %v", p, K, got, want)
		}
		return c
	}
	c1 := backfill(1)
	if err := OfferSnapshot(srv.Addr(), c1.Session(), 1, K, barrier, []byte("1/2")); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	// 0/2 was never offered.
	if _, err := DialAdopt(srv.Addr(), 0, WithPartition(0, 3)); !errors.Is(err, ErrCutPending) || !strings.Contains(err.Error(), "1 of partition group 2's snapshots") {
		t.Fatalf("adopting an incomplete cut: err = %v, want ErrCutPending naming 1 of 2", err)
	}
	c0 := backfill(0)
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
	if _, err := Dial(srv.Addr(), WithPartition(0, K)); !errors.Is(err, ErrRebalanced) {
		t.Fatalf("fenced shape after commit: err = %v, want ErrRebalanced", err)
	}
	waitDetached(t, srv)
	c3, err := Dial(srv.Addr(), WithPartition(0, 3))
	if err != nil {
		t.Fatalf("new shape refused after commit: %v", err)
	}
	c3.Close()
}

// TestRebalanceOnEmptyFeedCutsAtOne: on an empty feed the cutover record
// is the feed's first sequence, a valid cut: a subscriber of the shape
// connected before the prepare receives the record at 1, fresh joins of
// the shape are refused from then on, and the audit lists the cut.
func TestRebalanceOnEmptyFeedCutsAtOne(t *testing.T) {
	leakCheck(t)
	srv, _ := spooledServer(t, 64)
	c, err := Dial(srv.Addr(), WithPartition(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitClients(t, srv, 1)
	barrier, err := PrepareRebalance(srv.Addr(), 2, 3)
	if err != nil || barrier != 1 {
		t.Fatalf("prepare on an empty feed = (%d, %v), want the cut at 1", barrier, err)
	}
	if before, at, rec, err := untilCutover(c); err != nil || len(before) != 0 || at != 1 || rec.Actor != 2 || rec.Target != 3 {
		t.Fatalf("subscriber of the shape: %v before %+v at %d (%v), want the 2→3 record first, at 1", before, rec, at, err)
	}
	if _, err := Dial(srv.Addr(), WithPartition(1, 2)); !errors.Is(err, ErrRebalanced) {
		t.Fatalf("fresh join of the shape after the cut: err = %v, want ErrRebalanced", err)
	}
	if got, want := srv.Stats().Rebalances, []RebalanceStats{{From: 2, To: 3, Barrier: 1}}; !slices.Equal(got, want) {
		t.Fatalf("rebalance audit = %+v, want %+v", got, want)
	}
}

// TestCutoverLearnedFromTheRecord: a broker learns a cutover from its
// record alone. A relay hop that adopted the record holds the cut — its
// audit lists it, it refuses a fresh join of the retired shape and
// admits a resume at the barrier — and refuses a prepare, having no
// sequencer. A spooled root reopened on its spool holds the cut it
// noted beside the log: the same audit row and fence, and a re-prepare
// returns the same barrier without a second record.
func TestCutoverLearnedFromTheRecord(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	open := func(addr string) (*Server, *spool.Spool) {
		t.Helper()
		sp, err := spool.Open(dir, spool.WithSegmentBytes(4096))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(addr, WithReplayBuffer(64), WithSpool(sp))
		if err != nil {
			sp.Close()
			t.Fatal(err)
		}
		return srv, sp
	}
	root, sp := open("127.0.0.1:0")
	addr := root.Addr()
	edge, err := NewRelay("127.0.0.1:0", addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		root.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	barrier, err := PrepareRebalance(addr, 2, 3)
	if err != nil || barrier != 21 {
		t.Fatalf("prepare = (%d, %v), want the cut at 21", barrier, err)
	}
	root.BroadcastBatch([]osn.Event{testEvent(20)})
	for deadline := time.Now().Add(5 * time.Second); edge.Server().HeadSeq() < barrier+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("relay hop stuck at %d", edge.Server().HeadSeq())
		}
	}
	want := []RebalanceStats{{From: 2, To: 3, Barrier: barrier}}
	fenced := func(who string, srv *Server) {
		t.Helper()
		if got := srv.Stats().Rebalances; !slices.Equal(got, want) {
			t.Fatalf("%s: rebalance audit = %+v, want %+v", who, got, want)
		}
		if _, err := Dial(srv.Addr(), WithPartition(0, 2)); !errors.Is(err, ErrRebalanced) {
			t.Fatalf("%s: fresh join of the retired shape: err = %v, want ErrRebalanced", who, err)
		}
		c, err := DialResume(srv.Addr(), "ghost", barrier, WithPartition(1, 2))
		if err != nil {
			t.Fatalf("%s: resume at the barrier refused: %v", who, err)
		}
		closeDetached(t, srv, c)
	}
	fenced("relay hop", edge.Server())
	if _, err := PrepareRebalance(edge.Addr(), 2, 3); err == nil || !strings.Contains(err.Error(), "relay hop") {
		t.Fatalf("prepare at a relay hop: err = %v, want a refusal", err)
	}
	edge.Close()

	root.Abort()
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	root, sp = open(addr)
	defer sp.Close()
	defer root.Close()
	fenced("reopened root", root)
	if b, err := PrepareRebalance(addr, 2, 3); err != nil || b != barrier {
		t.Fatalf("re-prepare after the restart = (%d, %v), want (%d, nil)", b, err, barrier)
	}
	if _, err := PrepareRebalance(addr, 2, 4); err == nil || !strings.Contains(err.Error(), "already rebalancing to 3") {
		t.Fatalf("conflicting prepare after the restart: err = %v, want a refusal", err)
	}
	if head := root.HeadSeq(); head != barrier+1 {
		t.Fatalf("head = %d after the re-prepare, want %d: one record", head, barrier+1)
	}
}

// TestRebalanceBackToRetiredShape: a chained rebalance returns to a
// group shape an earlier one retired. While the 3→2 cutover is in
// flight the new 2-shape owners are admitted past the stale fence the
// 2→3 commit left, adopt the 3-shape cut and offer, although 2 was
// retired; their offers commit it, and the 3-shape snapshots go. A
// replay of shape 2 from sequence 1 is told the 2→3 record is stale,
// and its offer there fences nothing.
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
	threes, first := cutover(olds, 3, 40)
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
	if c.Reshaped() != barrier {
		t.Fatalf("new 0/2 owner told the newest cutover into its shape is at %d, want %d", c.Reshaped(), barrier)
	}
	closeDetached(t, srv, c)

	// A replay of shape 2 from the start is past the 3→2 cut too: it is
	// told so (Reshaped), so its worker judges on past the 2→3 record,
	// which retired an earlier generation of the shape. Its offer there
	// is an ordinary, stale one: shape 2 is not fenced again.
	replay, err := DialFrom(srv.Addr(), 1, WithPartition(0, 2))
	if err != nil {
		t.Fatalf("replay of 0/2 from 1: %v", err)
	}
	if replay.Reshaped() != barrier {
		t.Fatalf("replay of 0/2 told the newest cutover into its shape is at %d, want %d", replay.Reshaped(), barrier)
	}
	var records []osn.Event
	for len(records) < 2 {
		evs, err := replay.RecvBatch()
		if err != nil {
			t.Fatalf("replay of 0/2 after %d records: %v", len(records), err)
		}
		for _, ev := range evs {
			if ev.Type == osn.EvCutover {
				records = append(records, ev)
			}
		}
	}
	if records[0].Actor != 2 || records[1].Actor != 3 || replay.LastSeq() != barrier {
		t.Fatalf("replay of 0/2 met %+v through %d, want the 2→3 record and then the 3→2 one at %d", records, replay.LastSeq(), barrier)
	}
	if err := OfferSnapshot(srv.Addr(), replay.Session(), 0, 2, first, []byte("stale")); err != nil {
		t.Fatalf("replay's offer at the first cut: %v", err)
	}
	closeDetached(t, srv, replay)
	reb := srv.Stats().Rebalances
	if len(reb) != 2 || !reb[0].Committed || !reb[1].Committed {
		t.Fatalf("rebalance audit %+v, want the two committed cutovers only", reb)
	}
	fresh, err := Dial(srv.Addr(), WithPartition(1, 2))
	if err != nil {
		t.Fatalf("fresh join of shape 2 after the replay's offer: %v", err)
	}
	fresh.Close()
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
// owner (olds[p], the session that owns p/len(olds)) makes its
// retirement offer, "p/from" at the barrier, then each new worker adopts the cut (adoptCut) and
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

// TestChainedCommitKeepsNewerFence: 3→5 is prepared at 21, and 5→2 at
// 42 before the five new owners have offered. Their offers at 21 commit
// 3→5, and that commit must not lift the newer 5→2 fence: a fresh join
// of shape 5 and a resume of a 5-shape session past 42 are refused as
// rebalanced, as they were before the commit, so no restarted 5-shape
// worker judges past 42 beside the 2-shape group.
func TestChainedCommitKeepsNewerFence(t *testing.T) {
	leakCheck(t)
	srv, _ := spooledServer(t, 64)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			srv.BroadcastBatch([]osn.Event{testEvent(i)})
		}
	}
	olds := []string{owner(t, srv, 0, 3), owner(t, srv, 1, 3), owner(t, srv, 2, 3)}
	publish(20)
	b1, err := PrepareRebalance(srv.Addr(), 3, 5)
	if err != nil || b1 != 21 {
		t.Fatalf("3→5 prepare = (%d, %v), want the cut at 21", b1, err)
	}
	for p, sess := range olds {
		if err := OfferSnapshot(srv.Addr(), sess, p, 3, b1, []byte(fmt.Sprintf("%d/3", p))); err != nil {
			t.Fatal(err)
		}
	}
	fives := make([]string, 5)
	for p := range fives {
		c := adoptCut(t, srv.Addr(), p, 5, 3, b1)
		fives[p] = c.Session()
		closeDetached(t, srv, c)
	}
	publish(20)
	b2, err := PrepareRebalance(srv.Addr(), 5, 2)
	if err != nil || b2 != 42 {
		t.Fatalf("5→2 prepare = (%d, %v), want the cut at 42", b2, err)
	}
	for p, sess := range fives {
		if err := OfferSnapshot(srv.Addr(), sess, p, 5, b1, []byte(fmt.Sprintf("%d/5 at %d", p, b1))); err != nil {
			t.Fatal(err)
		}
	}
	want := []RebalanceStats{{From: 3, To: 5, Barrier: b1, Committed: true}, {From: 5, To: 2, Barrier: b2}}
	if got := srv.Stats().Rebalances; !slices.Equal(got, want) {
		t.Fatalf("rebalance audit = %+v, want %+v", got, want)
	}
	wantReb := RebalancedError{From: 5, To: 2, Barrier: b2}
	for name, dial := range map[string]func() (*Client, error){
		"fresh join of 0/5": func() (*Client, error) { return Dial(srv.Addr(), WithPartition(0, 5)) },
		"resume of 0/5's owner past 42": func() (*Client, error) {
			return DialResume(srv.Addr(), fives[0], b2+1, WithPartition(0, 5))
		},
	} {
		var reb *RebalancedError
		if c, err := dial(); !errors.As(err, &reb) || *reb != wantReb {
			if c != nil {
				c.Close()
			}
			t.Fatalf("%s after the 3→5 commit: err = %v, want ErrRebalanced naming %+v", name, err, wantReb)
		}
	}
}

// TestRestartKeepsChainedCommit: 3→5 at 21 and 5→2 at 42 both commit,
// then the root is killed and reopened on its spool. The 5→2 commit
// dropped the 5-shape snapshots that 3→5's commit was read from, and
// the reopened root must still give the answers the live one gave: both
// cuts committed in the audit, an adopting 0/5 hello refused as
// rebalanced (not left waiting on a cut-pending that never completes),
// and a 2→5 prepare accepted at the next sequence.
func TestRestartKeepsChainedCommit(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	open := func(addr string) (*Server, *spool.Spool) {
		t.Helper()
		sp, err := spool.Open(dir, spool.WithSegmentBytes(4096))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(addr, WithReplayBuffer(64), WithSpool(sp))
		if err != nil {
			sp.Close()
			t.Fatal(err)
		}
		return srv, sp
	}
	srv, sp := open("127.0.0.1:0")
	addr := srv.Addr()
	cutover := func(olds []string, to int) ([]string, uint64) {
		t.Helper()
		for i := 0; i < 20; i++ {
			srv.BroadcastBatch([]osn.Event{testEvent(i)})
		}
		barrier, err := PrepareRebalance(addr, len(olds), to)
		if err != nil {
			t.Fatal(err)
		}
		return cutOver(t, srv, olds, to, barrier), barrier
	}
	fives, b1 := cutover([]string{owner(t, srv, 0, 3), owner(t, srv, 1, 3), owner(t, srv, 2, 3)}, 5)
	_, b2 := cutover(fives, 2)
	want := []RebalanceStats{{From: 3, To: 5, Barrier: b1, Committed: true}, {From: 5, To: 2, Barrier: b2, Committed: true}}
	answers := func(who string) {
		t.Helper()
		if got := srv.Stats().Rebalances; !slices.Equal(got, want) {
			t.Fatalf("%s: rebalance audit = %+v, want %+v", who, got, want)
		}
		if c, err := DialAdopt(addr, 0, WithPartition(0, 5)); !errors.Is(err, ErrRebalanced) {
			if c != nil {
				c.Close()
			}
			t.Fatalf("%s: adopting 0/5: err = %v, want ErrRebalanced", who, err)
		}
	}
	answers("live root")
	srv.Abort()
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	srv, sp = open(addr)
	defer sp.Close()
	defer srv.Close()
	answers("reopened root")
	if b, err := PrepareRebalance(addr, 2, 5); err != nil || b != b2+1 {
		t.Fatalf("2→5 prepare after the restart = (%d, %v), want (%d, nil)", b, err, b2+1)
	}
}
