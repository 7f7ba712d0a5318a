package graph

import (
	"sort"

	"sybilwild/internal/stats"
)

// RandomWalk performs a simple random walk of the given length starting
// at start and returns the visited nodes (including start, so the
// result has length+1 entries). The walk stops early at a node with no
// neighbours.
func (g *Graph) RandomWalk(r *stats.Rand, start NodeID, length int) []NodeID {
	path := make([]NodeID, 0, length+1)
	path = append(path, start)
	cur := start
	for i := 0; i < length; i++ {
		nbrs := g.Neighbors(cur)
		if len(nbrs) == 0 {
			break
		}
		cur = nbrs[r.Intn(len(nbrs))].To
		path = append(path, cur)
	}
	return path
}

// RandomRoute performs a "random route" walk as used by SybilGuard and
// SybilLimit: at every node the outgoing edge is determined by a fixed
// per-node pseudorandom permutation of its incident edges, keyed by the
// incoming edge. Routes are therefore convergent (two routes entering a
// node on the same edge leave on the same edge) and back-traceable.
//
// perm provides the per-node permutation seed; it must stay fixed
// across calls for route convergence to hold.
func (g *Graph) RandomRoute(perm RoutePermuter, start NodeID, length int) []NodeID {
	path := make([]NodeID, 0, length+1)
	path = append(path, start)
	cur := start
	// Entering edge index; -1 means the walk starts here, and by
	// convention we leave via the image of index 0.
	in := -1
	for i := 0; i < length; i++ {
		deg := len(g.adj[cur])
		if deg == 0 {
			break
		}
		var outIdx int
		if in < 0 {
			outIdx = perm.Permute(cur, 0, deg)
		} else {
			outIdx = perm.Permute(cur, in, deg)
		}
		e := g.adj[cur][outIdx]
		next := e.To
		// Find the index of the reverse edge (cur as seen from next) so
		// the next hop knows its entering edge.
		in = indexOfNeighbor(g.adj[next], cur)
		cur = next
		path = append(path, cur)
	}
	return path
}

func indexOfNeighbor(es []Edge, v NodeID) int {
	for i, e := range es {
		if e.To == v {
			return i
		}
	}
	return -1
}

// RoutePermuter supplies the fixed pseudorandom edge permutations used
// by RandomRoute.
type RoutePermuter interface {
	// Permute maps an incoming edge index to an outgoing edge index for
	// node u with degree deg. The mapping must be a bijection on
	// [0, deg) for fixed u.
	Permute(u NodeID, in, deg int) int
}

// SeededPermuter implements RoutePermuter with a per-node Feistel-style
// mix keyed by a global seed. For a fixed node the mapping is a
// bijection over [0, deg) produced by sort-by-hash.
type SeededPermuter struct {
	Seed uint64
	// cache of computed permutations keyed by node; deg can change as
	// the graph grows, so entries are invalidated when deg differs.
	cache map[NodeID][]int
}

// NewSeededPermuter returns a permuter with the given seed.
func NewSeededPermuter(seed uint64) *SeededPermuter {
	return &SeededPermuter{Seed: seed, cache: make(map[NodeID][]int)}
}

// Permute implements RoutePermuter.
func (p *SeededPermuter) Permute(u NodeID, in, deg int) int {
	if deg <= 0 {
		return 0
	}
	if in < 0 || in >= deg {
		in = 0
	}
	perm, ok := p.cache[u]
	if !ok || len(perm) != deg {
		perm = makePerm(p.Seed, u, deg)
		p.cache[u] = perm
	}
	return perm[in]
}

func makePerm(seed uint64, u NodeID, deg int) []int {
	type kv struct {
		h uint64
		i int
	}
	ks := make([]kv, deg)
	for i := 0; i < deg; i++ {
		ks[i] = kv{h: mix(seed, uint64(u), uint64(i)), i: i}
	}
	sort.Slice(ks, func(a, b int) bool { return ks[a].h < ks[b].h })
	perm := make([]int, deg)
	for pos, k := range ks {
		perm[k.i] = pos
	}
	return perm
}

func mix(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Snowball performs popularity-biased snowball sampling, the targeting
// mechanism the paper attributes to commercial Sybil tools (§3.4): from
// a frontier of discovered nodes, repeatedly expand the highest-degree
// unexplored nodes, accumulating their neighbours. bias ∈ [0, 1]
// controls how strongly expansion prefers popular nodes: 0 expands
// uniformly at random, 1 always expands the current highest-degree
// frontier node.
//
// It returns up to want distinct sampled nodes (excluding the seeds).
func (g *Graph) Snowball(r *stats.Rand, seeds []NodeID, want int, bias float64) []NodeID {
	seen := make(map[NodeID]struct{}, want+len(seeds))
	for _, s := range seeds {
		seen[s] = struct{}{}
	}
	frontier := append([]NodeID(nil), seeds...)
	explored := make(map[NodeID]struct{}, want)
	var out []NodeID
	for len(out) < want && len(frontier) > 0 {
		var pickIdx int
		if r.Bernoulli(bias) {
			// Greedy: highest-degree frontier node.
			best := 0
			for i := 1; i < len(frontier); i++ {
				if g.Degree(frontier[i]) > g.Degree(frontier[best]) {
					best = i
				}
			}
			pickIdx = best
		} else {
			pickIdx = r.Intn(len(frontier))
		}
		node := frontier[pickIdx]
		frontier[pickIdx] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if _, done := explored[node]; done {
			continue
		}
		explored[node] = struct{}{}
		for _, e := range g.Neighbors(node) {
			if _, ok := seen[e.To]; ok {
				continue
			}
			seen[e.To] = struct{}{}
			out = append(out, e.To)
			frontier = append(frontier, e.To)
			if len(out) >= want {
				break
			}
		}
	}
	return out
}
