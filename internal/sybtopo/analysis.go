package sybtopo

import (
	"sort"

	"sybilwild/internal/graph"
	"sybilwild/internal/stats"
)

// SybilDegree returns the Sybil-edge degree of every Sybil.
func (t *Topology) SybilDegree() []int { return t.SybilGraph.Degrees() }

// TotalDegree returns, per Sybil, attack degree + Sybil-edge degree —
// the "All Edges" series of Figure 5.
func (t *Topology) TotalDegree() []int {
	out := make([]int, t.NumSybils())
	for i := range out {
		out[i] = int(t.AttackDeg[i]) + t.SybilGraph.Degree(graph.NodeID(i))
	}
	return out
}

// FracWithSybilEdge returns the fraction of Sybils with at least one
// Sybil edge (the paper reports ≈20%, §3.2).
func (t *Topology) FracWithSybilEdge() float64 {
	n := t.NumSybils()
	if n == 0 {
		return 0
	}
	c := 0
	for i := 0; i < n; i++ {
		if t.SybilGraph.Degree(graph.NodeID(i)) > 0 {
			c++
		}
	}
	return float64(c) / float64(n)
}

// ComponentInfo summarizes one connected Sybil component (Table 2 row).
type ComponentInfo struct {
	Sybils     int
	SybilEdges int
	AtkEdges   int64
	Audience   int64
	Members    []graph.NodeID
}

// Components returns the connected components of the Sybil-edge graph
// restricted to Sybils that have at least one Sybil edge, ordered by
// descending size. Audience is not filled in (it is expensive);
// use FillAudience for the rows you report.
func (t *Topology) Components() []ComponentInfo {
	// Mask out isolated Sybils: the paper's component analysis is over
	// Sybils with ≥1 Sybil edge.
	keep := make([]bool, t.NumSybils())
	for i := range keep {
		keep[i] = t.SybilGraph.Degree(graph.NodeID(i)) > 0
	}
	sub, _, rev := t.SybilGraph.Induced(keep)
	labels, sizes := sub.Components()
	groups := graph.ComponentMembers(labels, sizes)
	infos := make([]ComponentInfo, 0, len(groups))
	for _, grp := range groups {
		info := ComponentInfo{Sybils: len(grp)}
		seen := make(map[graph.NodeID]struct{}, len(grp))
		for _, sid := range grp {
			orig := rev[sid]
			info.Members = append(info.Members, orig)
			seen[orig] = struct{}{}
			info.AtkEdges += int64(t.AttackDeg[orig])
		}
		for _, sid := range grp {
			orig := rev[sid]
			for _, e := range t.SybilGraph.Neighbors(orig) {
				if _, ok := seen[e.To]; ok && orig < e.To {
					info.SybilEdges++
				}
			}
		}
		infos = append(infos, info)
	}
	sort.SliceStable(infos, func(a, b int) bool { return infos[a].Sybils > infos[b].Sybils })
	return infos
}

// FillAudience computes the distinct-normal audience of a component by
// regenerating each member's attack-target sample from its stored
// seed. Targets are drawn from the operator's pool for narrow-fleet
// members and from the global Zipf popularity distribution otherwise.
func (t *Topology) FillAudience(info *ComponentInfo) {
	seen := make(map[int64]struct{}, info.AtkEdges/2+16)
	for _, m := range info.Members {
		t.eachAttackTarget(int(m), func(target int64) {
			seen[target] = struct{}{}
		})
	}
	info.Audience = int64(len(seen))
}

// eachAttackTarget regenerates Sybil i's accepted attack targets.
func (t *Topology) eachAttackTarget(i int, fn func(int64)) {
	r := stats.NewRand(t.TargetSeed[i])
	deg := int(t.AttackDeg[i])
	if op := t.Op[i]; op >= 0 && t.Operators[op].Narrow {
		o := t.Operators[op]
		next := r.ZipfRanks(t.Cfg.ZipfS, int(o.PoolSize))
		for k := 0; k < deg; k++ {
			fn(o.PoolStart + int64(next()))
		}
		return
	}
	// Wide: a mixture of Zipf-popular head users and ordinary users
	// from the crawled neighbourhoods. The Zipf sampler needs an
	// int-sized n; the virtual normal population fits comfortably.
	next := r.ZipfRanks(t.Cfg.ZipfS, int(t.Normals))
	for k := 0; k < deg; k++ {
		if r.Bernoulli(t.Cfg.PopularTargetP) {
			fn(int64(next()))
		} else {
			fn(r.Int63n(t.Normals))
		}
	}
}

// EdgeOrder describes where a Sybil's Sybil-edges fall in its
// chronological friend list — one column of Figure 8.
type EdgeOrder struct {
	Sybil      graph.NodeID
	TotalEdges int
	// Positions of Sybil edges in [0, TotalEdges), ascending.
	SybilRanks []int
}

// EdgeOrderOf reconstructs the creation-order column for one Sybil.
// Attack edges are spread over the account's activity window, so a
// Sybil edge's rank is its time-offset rank among all of the account's
// edges.
func (t *Topology) EdgeOrderOf(i graph.NodeID) EdgeOrder {
	nbrs := t.SybilGraph.Neighbors(i)
	total := int(t.AttackDeg[i]) + len(nbrs)
	eo := EdgeOrder{Sybil: i, TotalEdges: total}
	for _, e := range nbrs {
		frac := float64(e.Time-t.Arrival[i]) / float64(t.Window[i])
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		rank := int(frac * float64(total-1))
		eo.SybilRanks = append(eo.SybilRanks, rank)
	}
	sort.Ints(eo.SybilRanks)
	return eo
}

// IsIntentional reports whether Sybil i belongs to an intentional
// (deliberately linked) fleet — ground truth for validating the
// Figure 8 vertical-line detection.
func (t *Topology) IsIntentional(i graph.NodeID) bool {
	op := t.Op[i]
	return op >= 0 && t.Operators[op].Intentional
}

// GiantComponent returns the largest component (after Components()
// ordering). It panics if there are no components.
func (t *Topology) GiantComponent() ComponentInfo {
	comps := t.Components()
	if len(comps) == 0 {
		panic("sybtopo: no sybil components")
	}
	return comps[0]
}
