package graph

import "math/bits"

// ClusteringFirstK returns the clustering coefficient computed over
// only the first k friends of u in edge-creation order, the metric the
// paper uses (Figure 4, k = 50) so the detector can act before an
// account finishes building its friend list. The coefficient is the
// fraction of pairs of the selected friends that are themselves
// connected, 0 with fewer than two; k ≥ degree covers the whole
// neighbourhood.
func (g *Graph) ClusteringFirstK(u NodeID, k int) float64 {
	nbrs := g.Neighbors(u)
	if len(nbrs) > k {
		nbrs = nbrs[:k]
	}
	return g.clusteringOver(nbrs)
}

// smallSet is the largest neighbour selection clusteringOver handles
// without allocating. It must cover the detector's only call,
// ClusteringFirstK(u, features.FirstFriendsK) — asserted in features.
const smallSet = 50

func (g *Graph) clusteringOver(nbrs []Edge) float64 {
	n := len(nbrs)
	if n < 2 {
		return 0
	}
	// Membership set over the selected neighbours, then a single scan
	// of each neighbour's adjacency list. O(sum deg(nbr)). The set is an
	// open-addressing table (-1 marks a free slot; node IDs are never
	// negative) with a power-of-two slot count that keeps it under half
	// full. For a small selection it lives on this call's stack — the
	// graph owns no scratch, so concurrent reads stay safe; only a
	// larger selection allocates one.
	var small [128]NodeID
	table := small[:]
	if n > smallSet {
		table = make([]NodeID, 1<<(bits.Len(uint(n))+1))
	}
	for i := range table {
		table[i] = -1
	}
	shift := 32 - uint(bits.TrailingZeros(uint(len(table))))
	// find returns the slot holding v, or the free slot where the probe
	// for it ends (Fibonacci hashing, linear probing).
	find := func(v NodeID) uint32 {
		h := uint32(v) * 2654435769 >> shift
		for table[h] != -1 && table[h] != v {
			h = (h + 1) & uint32(len(table)-1)
		}
		return h
	}
	for _, e := range nbrs {
		table[find(e.To)] = e.To
	}
	links := 0
	for _, e := range nbrs {
		for _, f := range g.adj[e.To] {
			if table[find(f.To)] == f.To {
				links++ // counted twice, once per endpoint
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(links/2) / float64(pairs)
}
