package osn

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestPartitionExhaustiveDisjoint: ownership is a function — for any
// (K, account) exactly one partition index owns the account, the
// index is in range, and it is stable across calls. K <= 1 always
// maps to 0.
func TestPartitionExhaustiveDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := make([]AccountID, 0, 2000)
	for i := 0; i < 1000; i++ {
		ids = append(ids, AccountID(i))
	}
	for i := 0; i < 1000; i++ {
		ids = append(ids, AccountID(rng.Int31()))
	}
	for _, k := range []int{-1, 0, 1, 2, 3, 5, 8, 64} {
		counts := make([]int, max(k, 1))
		for _, id := range ids {
			p := Partition(id, k)
			if p < 0 || p >= len(counts) {
				t.Fatalf("Partition(%d, %d) = %d out of range", id, k, p)
			}
			if again := Partition(id, k); again != p {
				t.Fatalf("Partition(%d, %d) unstable: %d then %d", id, k, p, again)
			}
			counts[p]++
		}
		if k <= 1 {
			if counts[0] != len(ids) {
				t.Fatalf("k=%d: want all ids in partition 0", k)
			}
			continue
		}
		// FNV-1a should spread the account space roughly evenly; an
		// empty partition at these K would starve a worker entirely.
		for p, c := range counts {
			if c == 0 {
				t.Fatalf("k=%d: partition %d owns no accounts out of %d", k, p, len(ids))
			}
		}
	}
}

// TestPartitionDeliversContract pins the delivery predicate against
// its spec: the owner always receives the event, accepts and cutover
// records fan out to every partition, requests and bans reach the
// target's partition,
// everything else stays owner-only — and the union over partitions
// covers every event (nothing is dropped by filtering).
func TestPartitionDeliversContract(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	types := []EventType{
		EvFriendRequest, EvFriendAccept, EvFriendReject,
		EvMessage, EvBan, EvBlogPost, EvBlogShare, EvCutover,
	}
	for _, k := range []int{1, 2, 3, 5, 7} {
		for i := 0; i < 5000; i++ {
			ev := Event{
				Type:   types[rng.Intn(len(types))],
				Actor:  AccountID(rng.Int31n(1 << 20)),
				Target: AccountID(rng.Int31n(1 << 20)),
			}
			owner := Partition(ev.Actor, k)
			delivered := 0
			for p := 0; p < k; p++ {
				got := PartitionDelivers(ev, p, k)
				want := p == owner
				switch ev.Type {
				case EvFriendAccept, EvCutover:
					want = true
				case EvFriendRequest, EvBan:
					want = want || p == Partition(ev.Target, k)
				}
				if got != want {
					t.Fatalf("k=%d part=%d ev=%+v: delivers=%v want %v", k, p, ev, got, want)
				}
				if got {
					delivered++
				}
			}
			if delivered == 0 {
				t.Fatalf("k=%d ev=%+v delivered to no partition", k, ev)
			}
			if !PartitionDelivers(ev, owner, k) {
				t.Fatalf("k=%d ev=%+v not delivered to its owner %d", k, ev, owner)
			}
		}
	}
}

// TestPartitionMatchesFNV1a pins the inlined hash to hash/fnv bit for
// bit: a changed assignment would silently re-route every account —
// producers, broker filters, workers and every stored snapshot's
// Part/Parts would disagree about who owns whom.
func TestPartitionMatchesFNV1a(t *testing.T) {
	ref := func(id AccountID, n int) int {
		h := fnv.New32a()
		v := uint32(id)
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		return int(h.Sum32() % uint32(n))
	}
	ids := []AccountID{math.MaxInt32, math.MinInt32, -1}
	for id := AccountID(0); id <= 1<<17; id++ {
		ids = append(ids, id)
	}
	for _, n := range []int{2, 3, 4, 5, 7, 64} {
		for _, id := range ids {
			if got, want := Partition(id, n), ref(id, n); got != want {
				t.Fatalf("Partition(%d, %d) = %d, hash/fnv says %d", id, n, got, want)
			}
		}
	}
}
