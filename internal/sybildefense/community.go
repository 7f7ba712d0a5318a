package sybildefense

import (
	"sort"

	"sybilwild/internal/graph"
)

// CommunityRank implements the unifying view of Viswanath et al.
// (SIGCOMM 2010): every community-based Sybil detector is, at heart, a
// ranking of nodes by how early they join a low-conductance community
// around a trusted seed. Nodes admitted early are "honest"; if Sybils
// formed a tight community behind a small cut, they would be admitted
// last (after the conductance valley).
type CommunityRank struct {
	G *graph.Graph
}

// NewCommunityRank wraps a graph.
func NewCommunityRank(g *graph.Graph) *CommunityRank {
	return &CommunityRank{G: g}
}

// Ranking grows a community greedily from the seeds: at each step the
// frontier node with the most links into the current community joins
// (degree-normalized), which is the classic greedy conductance
// heuristic. It returns nodes in admission order (seeds first) and the
// conductance after each admission. Unreachable nodes are appended at
// the end in ID order with conductance 1.
func (cr *CommunityRank) Ranking(seeds []graph.NodeID) (order []graph.NodeID, conductance []float64) {
	n := cr.G.NumNodes()
	inSet := make([]bool, n)
	linksIn := make([]int, n) // edges from node into current set
	// Running cut/volume for incremental conductance.
	cut, vol := 0, 0
	volAll := 0
	for u := 0; u < n; u++ {
		volAll += cr.G.Degree(graph.NodeID(u))
	}

	admit := func(u graph.NodeID) {
		inSet[u] = true
		d := cr.G.Degree(u)
		vol += d
		cut += d - 2*linksIn[u]
		for _, e := range cr.G.Neighbors(u) {
			linksIn[e.To]++
		}
		order = append(order, u)
		minVol := vol
		if volAll-vol < minVol {
			minVol = volAll - vol
		}
		if minVol <= 0 {
			conductance = append(conductance, 1)
		} else {
			conductance = append(conductance, float64(cut)/float64(minVol))
		}
	}

	for _, s := range seeds {
		if !inSet[s] {
			admit(s)
		}
	}
	// Frontier as a simple score-sorted selection; n is moderate for
	// the defense experiments, so an O(n) scan per admission is fine
	// and keeps the algorithm transparent.
	for len(order) < n {
		best := graph.NodeID(-1)
		bestScore := -1.0
		for u := 0; u < n; u++ {
			if inSet[u] || linksIn[u] == 0 {
				continue
			}
			score := float64(linksIn[u]) / float64(cr.G.Degree(graph.NodeID(u)))
			if score > bestScore || (score == bestScore && (best < 0 || graph.NodeID(u) < best)) {
				bestScore = score
				best = graph.NodeID(u)
			}
		}
		if best < 0 {
			break // disconnected remainder
		}
		admit(best)
	}
	// Append unreachable nodes.
	var rest []graph.NodeID
	for u := 0; u < n; u++ {
		if !inSet[u] {
			rest = append(rest, graph.NodeID(u))
		}
	}
	sort.Slice(rest, func(a, b int) bool { return rest[a] < rest[b] })
	for _, u := range rest {
		order = append(order, u)
		conductance = append(conductance, 1)
	}
	return order, conductance
}
