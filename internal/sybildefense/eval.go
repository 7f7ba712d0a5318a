package sybildefense

import (
	"math"
	"sort"

	"sybilwild/internal/graph"
	"sybilwild/internal/stats"
)

// Result is one detector's acceptance behaviour on a labelled graph.
// A working defense shows SybilAccept ≪ HonestAccept; the paper's
// point is that on real topologies the two converge.
type Result struct {
	Name         string
	SybilAccept  float64 // fraction of Sybil suspects accepted
	HonestAccept float64 // fraction of honest suspects accepted
}

// Gap returns HonestAccept - SybilAccept, the defense's useful signal.
func (r Result) Gap() float64 { return r.HonestAccept - r.SybilAccept }

// EvalConfig sizes the evaluation.
type EvalConfig struct {
	Verifiers    int // honest verifiers sampled
	Suspects     int // suspects sampled per class
	SGRouteLen   int
	SLInstances  int
	SLRouteLen   int
	SIWalkLen    int
	SIWalks      int
	SIThresholdQ float64 // honest-score quantile used as threshold
	Seed         int64
}

// DefaultEvalConfig returns sizes suitable for graphs of a few
// thousand nodes.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{
		Verifiers:    25,
		Suspects:     200,
		SGRouteLen:   0, // 0 ⇒ auto: ~√(n·log n)
		SLInstances:  0, // 0 ⇒ auto: ~√m
		SLRouteLen:   0, // 0 ⇒ auto: ~log n
		SIWalkLen:    0, // 0 ⇒ auto: ~log n · 3
		SIWalks:      400,
		SIThresholdQ: 0.05,
		Seed:         1,
	}
}

// EvaluateAll runs all four defenses plus the community-ranking view
// against a labelled graph. isSybil marks the ground-truth Sybils;
// verifier/seed nodes are sampled from honest nodes with degree ≥ 2.
func EvaluateAll(g *graph.Graph, isSybil []bool, cfg EvalConfig) []Result {
	r := stats.NewRand(cfg.Seed)
	n := g.NumNodes()
	autoSet(&cfg, g)

	honest := make([]graph.NodeID, 0, n)
	sybils := make([]graph.NodeID, 0, n)
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		if g.Degree(id) == 0 {
			continue
		}
		if isSybil[u] {
			sybils = append(sybils, id)
		} else if g.Degree(id) >= 2 {
			honest = append(honest, id)
		}
	}
	verifiers := pick(r, honest, cfg.Verifiers)
	honestSuspects := pick(r, honest, cfg.Suspects)
	sybilSuspects := pick(r, sybils, cfg.Suspects)

	var results []Result

	// SybilGuard and SybilLimit: pairwise verifier/suspect admission.
	sg := NewSybilGuard(g, cfg.SGRouteLen, uint64(cfg.Seed)+11)
	results = append(results, pairwise("SybilGuard", verifiers, honestSuspects, sybilSuspects, sg.Accepts))
	sl := NewSybilLimit(g, cfg.SLInstances, cfg.SLRouteLen, uint64(cfg.Seed)+23)
	results = append(results, pairwise("SybilLimit", verifiers, honestSuspects, sybilSuspects, sl.Accepts))

	// SybilInfer: global scores from trusted seeds, threshold at the
	// q-quantile of honest verifier scores.
	si := NewSybilInfer(g, cfg.SIWalkLen, cfg.SIWalks)
	scores := si.Scores(r.Fork(), verifiers)
	var honestScores []float64
	for _, h := range honestSuspects {
		honestScores = append(honestScores, scores[h])
	}
	thr := quantile(honestScores, cfg.SIThresholdQ)
	accept := si.Accepts(scores, thr)
	results = append(results, Result{
		Name:         "SybilInfer",
		SybilAccept:  acceptFrac(accept, sybilSuspects),
		HonestAccept: acceptFrac(accept, honestSuspects),
	})

	// SumUp: vote delivery ratio from each class toward a collector.
	su := NewSumUp(g)
	collector := verifiers[0]
	results = append(results, Result{
		Name:         "SumUp",
		SybilAccept:  su.VoteRatio(collector, sybilSuspects),
		HonestAccept: su.VoteRatio(collector, honestSuspects),
	})

	// Community ranking: accept the first half of the ranking.
	cr := NewCommunityRank(g)
	order, _ := cr.Ranking(verifiers[:min(5, len(verifiers))])
	rank := make([]int, n)
	for pos, u := range order {
		rank[u] = pos
	}
	half := len(order) / 2
	inTop := make([]bool, n)
	for u := 0; u < n; u++ {
		inTop[u] = rank[u] < half
	}
	results = append(results, Result{
		Name:         "CommunityRank",
		SybilAccept:  acceptFrac(inTop, sybilSuspects),
		HonestAccept: acceptFrac(inTop, honestSuspects),
	})
	return results
}

func autoSet(cfg *EvalConfig, g *graph.Graph) {
	n := float64(g.NumNodes())
	m := float64(g.NumEdges())
	if cfg.SGRouteLen <= 0 {
		cfg.SGRouteLen = int(math.Sqrt(n*log2(n))) + 2
	}
	if cfg.SLInstances <= 0 {
		cfg.SLInstances = int(math.Sqrt(m)) + 1
	}
	if cfg.SLRouteLen <= 0 {
		cfg.SLRouteLen = int(log2(n))*2 + 2
	}
	if cfg.SIWalkLen <= 0 {
		cfg.SIWalkLen = int(log2(n))*3 + 2
	}
}

func pairwise(name string, verifiers, honest, sybil []graph.NodeID, accepts func(v, s graph.NodeID) bool) Result {
	frac := func(suspects []graph.NodeID) float64 {
		if len(suspects) == 0 || len(verifiers) == 0 {
			return 0
		}
		ok := 0
		for _, s := range suspects {
			acc := 0
			for _, v := range verifiers {
				if accepts(v, s) {
					acc++
				}
			}
			// Majority admission across verifiers.
			if acc*2 >= len(verifiers) {
				ok++
			}
		}
		return float64(ok) / float64(len(suspects))
	}
	return Result{Name: name, SybilAccept: frac(sybil), HonestAccept: frac(honest)}
}

func pick(r *stats.Rand, from []graph.NodeID, k int) []graph.NodeID {
	if len(from) == 0 {
		return nil
	}
	idx := stats.SampleWithoutReplacement(r, len(from), k)
	out := make([]graph.NodeID, len(idx))
	for i, j := range idx {
		out[i] = from[j]
	}
	return out
}

func acceptFrac(accept []bool, nodes []graph.NodeID) float64 {
	if len(nodes) == 0 {
		return 0
	}
	c := 0
	for _, u := range nodes {
		if accept[u] {
			c++
		}
	}
	return float64(c) / float64(len(nodes))
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, q)
}

// InjectTightCommunity appends a classic "textbook" Sybil region to g:
// nSybil new nodes densely connected among themselves (intraDeg edges
// per node) with only attackEdges links to random existing honest
// nodes. This is the synthetic scenario under which all four defenses
// were validated in their original papers; the ext1 experiment
// contrasts it with the emergent topology.
func InjectTightCommunity(g *graph.Graph, r *stats.Rand, nSybil, intraDeg, attackEdges int, t int64) []graph.NodeID {
	nHonest := g.NumNodes()
	first := g.AddNodes(nSybil)
	ids := make([]graph.NodeID, nSybil)
	for i := range ids {
		ids[i] = first + graph.NodeID(i)
	}
	// Ring for guaranteed connectivity, then random intra edges.
	for i := 0; i < nSybil; i++ {
		g.AddEdge(ids[i], ids[(i+1)%nSybil], t)
	}
	for i := 0; i < nSybil; i++ {
		for e := 0; e < intraDeg; e++ {
			j := r.Intn(nSybil)
			if j != i {
				g.AddEdge(ids[i], ids[j], t)
			}
		}
	}
	for e := 0; e < attackEdges; e++ {
		s := ids[r.Intn(nSybil)]
		h := graph.NodeID(r.Intn(nHonest))
		g.AddEdge(s, h, t)
	}
	return ids
}

func log2(x float64) float64 {
	if x <= 1 {
		return 1
	}
	return math.Log2(x)
}
