package sybildefense

import (
	"testing"

	"sybilwild/internal/agents"
	"sybilwild/internal/graph"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

func maskFor(g *graph.Graph, sybils []graph.NodeID) []bool {
	mask := make([]bool, g.NumNodes())
	for _, s := range sybils {
		mask[s] = true
	}
	return mask
}

// TestDefensesCatchTightCommunity reproduces the validation scenario
// of the original defense papers: a dense Sybil region behind a narrow
// attack cut IS separable.
func TestDefensesCatchTightCommunity(t *testing.T) {
	r := stats.NewRand(11)
	g := HonestBackground(r, 800, 5)
	sybils := InjectTightCommunity(g, r, 150, 6, 12, 99)
	mask := maskFor(g, sybils)
	cfg := DefaultEvalConfig()
	cfg.Suspects = 100
	results := EvaluateAll(g, mask, cfg)
	for _, res := range results {
		if res.HonestAccept < 0.55 {
			t.Errorf("%s: honest acceptance %.2f too low even on easy case", res.Name, res.HonestAccept)
		}
		if res.Gap() < 0.30 {
			t.Errorf("%s: gap %.2f on tight community, want ≥0.30 (honest %.2f sybil %.2f)",
				res.Name, res.Gap(), res.HonestAccept, res.SybilAccept)
		}
	}
}

// TestDefensesFailOnIntegratedSybils reproduces the paper's core
// claim: Sybils that integrate into the graph (attack edges ≫ Sybil
// edges) slip past every community-based defense.
func TestDefensesFailOnIntegratedSybils(t *testing.T) {
	r := stats.NewRand(13)
	g := HonestBackground(r, 800, 5)
	sybils := IntegratedSybils(g, r, 150, 15)
	mask := maskFor(g, sybils)
	cfg := DefaultEvalConfig()
	cfg.Suspects = 100
	results := EvaluateAll(g, mask, cfg)
	for _, res := range results {
		if res.Gap() > 0.25 {
			t.Errorf("%s: gap %.2f on integrated sybils, want ≤0.25 (defense should fail)",
				res.Name, res.Gap())
		}
	}
}

func TestSybilGuardHonestIntersection(t *testing.T) {
	r := stats.NewRand(17)
	g := HonestBackground(r, 400, 5)
	sg := NewSybilGuard(g, 60, 7)
	acc := 0
	for i := 0; i < 50; i++ {
		v := graph.NodeID(r.Intn(400))
		s := graph.NodeID(r.Intn(400))
		if sg.Accepts(v, s) {
			acc++
		}
	}
	if acc < 35 {
		t.Fatalf("honest-honest acceptance %d/50 too low", acc)
	}
}

func TestSybilGuardDeterministicRoutes(t *testing.T) {
	r := stats.NewRand(19)
	g := HonestBackground(r, 100, 4)
	sg := NewSybilGuard(g, 20, 5)
	a := sg.Accepts(3, 60)
	b := sg.Accepts(3, 60)
	if a != b {
		t.Fatal("acceptance not deterministic")
	}
}

func TestSybilLimitTails(t *testing.T) {
	r := stats.NewRand(23)
	g := HonestBackground(r, 300, 5)
	sl := NewSybilLimit(g, 40, 12, 3)
	ts := sl.tailSet(5)
	if len(ts) == 0 {
		t.Fatal("no tails")
	}
	for e := range ts {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("tail %v is not an edge", e)
		}
		if e[0] > e[1] {
			t.Fatalf("tail %v not canonical", e)
		}
	}
}

func TestSybilInferScoresHonestHigher(t *testing.T) {
	r := stats.NewRand(29)
	g := HonestBackground(r, 600, 5)
	sybils := InjectTightCommunity(g, r, 100, 6, 6, 9)
	si := NewSybilInfer(g, 25, 300)
	seeds := []graph.NodeID{1, 2, 3, 4, 5}
	scores := si.Scores(r, seeds)
	var hs, ss float64
	for u := 0; u < 600; u++ {
		hs += scores[u]
	}
	for _, s := range sybils {
		ss += scores[s]
	}
	hs /= 600
	ss /= float64(len(sybils))
	if hs <= ss {
		t.Fatalf("honest mean score %.4f not above sybil %.4f", hs, ss)
	}
}

func TestSumUpBoundedByCut(t *testing.T) {
	r := stats.NewRand(31)
	g := HonestBackground(r, 300, 4)
	// Tight community with exactly 5 attack edges: it can never deliver
	// more than 5 votes.
	sybils := InjectTightCommunity(g, r, 60, 5, 5, 9)
	su := NewSumUp(g)
	votes := su.CollectVotes(0, sybils)
	if votes > 5 {
		t.Fatalf("sybil votes %d exceed attack-edge cut 5", votes)
	}
	// Honest voters deliver much more.
	var honest []graph.NodeID
	for i := 1; i <= 60; i++ {
		honest = append(honest, graph.NodeID(i))
	}
	hv := su.CollectVotes(0, honest)
	if hv <= votes {
		t.Fatalf("honest votes %d not above sybil votes %d", hv, votes)
	}
}

func TestSumUpEmptyVoters(t *testing.T) {
	g := HonestBackground(stats.NewRand(1), 50, 3)
	su := NewSumUp(g)
	if su.CollectVotes(0, nil) != 0 || su.VoteRatio(0, nil) != 0 {
		t.Fatal("empty voters should yield zero")
	}
}

func TestCommunityRankAdmitsSeedFirst(t *testing.T) {
	r := stats.NewRand(37)
	g := HonestBackground(r, 200, 4)
	cr := NewCommunityRank(g)
	order, cond := cr.Ranking([]graph.NodeID{42})
	if order[0] != 42 {
		t.Fatalf("first admitted = %d", order[0])
	}
	if len(order) != g.NumNodes() || len(cond) != len(order) {
		t.Fatalf("ranking incomplete: %d of %d", len(order), g.NumNodes())
	}
	seen := map[graph.NodeID]bool{}
	for _, u := range order {
		if seen[u] {
			t.Fatalf("node %d admitted twice", u)
		}
		seen[u] = true
	}
	for _, c := range cond {
		if c < 0 || c > 1 {
			t.Fatalf("conductance out of range: %v", c)
		}
	}
}

func TestCommunityRankTightSybilsLast(t *testing.T) {
	r := stats.NewRand(41)
	g := HonestBackground(r, 500, 5)
	sybils := InjectTightCommunity(g, r, 100, 6, 5, 9)
	mask := maskFor(g, sybils)
	cr := NewCommunityRank(g)
	order, _ := cr.Ranking([]graph.NodeID{0, 1, 2})
	// Mean normalized rank of the Sybils: 1 = all ranked last, 0.5 =
	// indistinguishable from random.
	var sum float64
	ranked := 0
	for pos, u := range order {
		if mask[u] {
			sum += float64(pos) / float64(len(order))
			ranked++
		}
	}
	if q := sum / float64(max(ranked, 1)); q < 0.75 {
		t.Fatalf("tight sybils mean normalized rank %.3f, want ≥0.75 (ranked late)", q)
	}
}

func TestInjectTightCommunityShape(t *testing.T) {
	r := stats.NewRand(43)
	g := HonestBackground(r, 100, 3)
	before := g.NumNodes()
	sybils := InjectTightCommunity(g, r, 30, 4, 7, 5)
	if g.NumNodes() != before+30 || len(sybils) != 30 {
		t.Fatal("wrong node counts")
	}
	mask := maskFor(g, sybils)
	internal, cut, vol := 0, 0, 0
	for _, s := range sybils {
		for _, e := range g.Neighbors(s) {
			vol++
			if !mask[e.To] {
				cut++
			} else if s < e.To {
				internal++
			}
		}
	}
	if cut > 7 {
		t.Fatalf("attack edges %d exceed requested 7", cut)
	}
	if internal < 30 {
		t.Fatalf("internal edges %d below ring size", internal)
	}
	// Conductance, cut(S) / min(vol(S), vol(V\S)), must be low — that
	// is the point of the scenario.
	if c := float64(cut) / float64(min(vol, 2*g.NumEdges()-vol)); c > 0.1 {
		t.Fatalf("tight community conductance %.3f", c)
	}
}

// TestDefensesFailOnEmergentCampaignTopology closes the loop with the
// agent simulation: the Sybil topology that *emerges* from tool-driven
// behaviour (not a synthetic stand-in) also defeats every
// community-based defense.
func TestDefensesFailOnEmergentCampaignTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-backed defense eval in -short mode")
	}
	pop := agents.NewPopulation(19, agents.DefaultParams())
	pop.Bootstrap(3000)
	pop.LaunchSybils(40, 100*sim.TicksPerHour)
	pop.RunFor(400 * sim.TicksPerHour)

	cfg := DefaultEvalConfig()
	cfg.Suspects = 40
	results := EvaluateAll(pop.Net.Graph(), maskFor(pop.Net.Graph(), pop.Sybils), cfg)
	for _, res := range results {
		if res.Gap() > 0.3 {
			t.Errorf("%s: gap %.2f on emergent campaign topology, want collapsed", res.Name, res.Gap())
		}
	}
}
