// Partitioning of the account space for the detection cluster: one
// hash function shared by producers (sharded simulation), the broker
// (filtered subscriptions), and the detector (evaluation ownership),
// so "which worker owns account X" has exactly one answer everywhere.
package osn

// Partition deterministically assigns an account to one of n
// partitions (FNV-1a over the little-endian account id). It is the
// single partition function for the whole system: sharded producers
// split the simulated population with it, the broker filters
// partitioned subscriptions with it, and partitioned detector
// pipelines use it to decide which accounts they evaluate. n <= 1
// means "unpartitioned" and always returns 0.
func Partition(id AccountID, n int) int {
	if n <= 1 {
		return 0
	}
	// hash/fnv's New32a().Write of the four bytes, inlined: the broker
	// calls this for every event × partition, and the interface-typed
	// hasher allocated and dispatched per call.
	const offset32, prime32 = 2166136261, 16777619
	h, v := uint32(offset32), uint32(id)
	for i := 0; i < 4; i++ {
		h = (h ^ (v & 0xff)) * prime32
		v >>= 8
	}
	return int(h % uint32(n))
}

// PartitionDelivers reports whether a partitioned feed subscription
// (index part of parts) receives ev. Every event is OWNED by exactly
// one partition — Partition(ev.Actor, parts) — and ownership decides
// which worker evaluates and may flag the actor. But the paper's
// feature vector is not actor-local: an account's outgoing-accept
// ratio is updated by accept events whose actor is the accepting
// friend (possibly foreign), and its clustering coefficient needs
// edges BETWEEN its friends (neither endpoint the account). So beyond
// the owned slice each partition also receives the support slice it
// needs to keep its owned accounts' features exact:
//
//   - friend_accept events go to every partition: they are the graph
//     edges (clustering coefficient is a two-hop structural feature —
//     any partition may own an account adjacent to the new edge) and
//     they carry the target's outgoing-accept credit.
//   - friend_request events additionally go to the target's
//     partition (the target's incoming-request counter).
//   - a cutover record (EvCutover) goes to every partition: each
//     worker of the retiring shape must see where its feed ends.
//   - everything else (messages, bans, blog activity) goes only to
//     the owner.
//
// Evaluation stays exactly-one (ownership); delivery is
// exactly-one-plus-support. The union of K partitioned pipelines'
// flag sets therefore equals a single unpartitioned run, which is the
// cluster's correctness contract.
func PartitionDelivers(ev Event, part, parts int) bool {
	if parts <= 1 {
		return true
	}
	if Partition(ev.Actor, parts) == part {
		return true
	}
	switch ev.Type {
	case EvFriendAccept, EvCutover:
		return true
	case EvFriendRequest, EvBan:
		return Partition(ev.Target, parts) == part
	}
	return false
}
