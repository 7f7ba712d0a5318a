package agents

import (
	"testing"

	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

func TestBuildBackgroundShape(t *testing.T) {
	net := osn.NewNetwork()
	r := stats.NewRand(1)
	p := DefaultParams()
	ids := BuildBackground(net, r, p, 500, 1000000)
	if len(ids) != 500 || net.NumAccounts() != 500 {
		t.Fatalf("accounts = %d", net.NumAccounts())
	}
	g := net.Graph()
	if g.NumEdges() < 500*(p.BootstrapM-1) {
		t.Fatalf("too few edges: %d", g.NumEdges())
	}
	// Power-lawish: max degree far above mean.
	ds := g.Degrees()
	maxDeg, sum := 0, 0
	for _, d := range ds {
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(len(ds))
	if float64(maxDeg) < 3*mean {
		t.Fatalf("no hubs: max=%d mean=%.1f", maxDeg, mean)
	}
	// Triad formation yields non-trivial clustering.
	var ccSum float64
	ccNodes := 0
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if d := g.Degree(u); d >= 2 {
			ccSum += g.ClusteringFirstK(u, d) // the whole neighbourhood
			ccNodes++
		}
	}
	if cc := ccSum / float64(max(ccNodes, 1)); cc < 0.01 {
		t.Fatalf("background clustering too low: %v", cc)
	}
	// One connected component (seed clique + growth attaches everyone).
	_, sizes := g.Components()
	if len(sizes) != 1 {
		t.Fatalf("background graph fragmented: %d components", len(sizes))
	}
	// Edge timestamps within the span and node creation times ascending.
	for _, e := range g.Edges() {
		if e.Time < 0 || e.Time > 1000000 {
			t.Fatalf("edge time out of span: %d", e.Time)
		}
	}
}

func TestBuildBackgroundGenderMix(t *testing.T) {
	net := osn.NewNetwork()
	ids := BuildBackground(net, stats.NewRand(2), DefaultParams(), 2000, 100000)
	females := 0
	for _, id := range ids {
		if net.Account(id).Gender == osn.Female {
			females++
		}
	}
	frac := float64(females) / float64(len(ids))
	if frac < 0.42 || frac > 0.52 {
		t.Fatalf("female fraction = %v, want ~0.465", frac)
	}
}

func TestToolNextTargetFiltersAndRefills(t *testing.T) {
	g := graph.New(0)
	g.AddNodes(50)
	for i := 1; i < 50; i++ {
		g.AddEdge(0, graph.NodeID(i), int64(i))
	}
	tool := NewTool("test", 1, 10, stats.NewRand(3))
	seen := map[osn.AccountID]bool{}
	for i := 0; i < 20; i++ {
		id, ok := tool.NextTarget(g, func(id osn.AccountID) bool { return !seen[id] })
		if !ok {
			break
		}
		if seen[id] {
			t.Fatalf("target %d repeated despite filter", id)
		}
		seen[id] = true
	}
	if len(seen) < 10 {
		t.Fatalf("tool produced only %d targets", len(seen))
	}
}

func TestToolExhaustion(t *testing.T) {
	g := graph.New(0)
	g.AddNodes(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	tool := NewTool("test", 0.5, 5, stats.NewRand(4))
	_, ok := tool.NextTarget(g, func(osn.AccountID) bool { return false })
	if ok {
		t.Fatal("NextTarget returned a target despite nothing usable")
	}
}

// buildSmallCampaign runs a small but full end-to-end campaign used by
// several calibration tests.
func buildSmallCampaign(t *testing.T, seed int64, nNormal, nSybil int) *Population {
	t.Helper()
	pop := NewPopulation(seed, DefaultParams())
	pop.Bootstrap(nNormal)
	pop.LaunchSybils(nSybil, 100*sim.TicksPerHour)
	pop.RunFor(400 * sim.TicksPerHour)
	return pop
}

func TestCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	// The Sybil:normal ratio matters: at Renren scale Sybils are ~0.5%
	// of accounts. Saturating a tiny normal population with Sybil
	// requests produces topology artifacts no real OSN shows.
	pop := buildSmallCampaign(t, 7, 5000, 60)

	// Count per-account request/accept outcomes straight from the log.
	type tally struct{ sent, accepted, incoming, incAccepted int }
	tl := make([]tally, pop.Net.NumAccounts())
	for _, ev := range pop.Net.Events() {
		switch ev.Type {
		case osn.EvFriendRequest:
			tl[ev.Actor].sent++
			tl[ev.Target].incoming++
		case osn.EvFriendAccept:
			// Actor accepted Target's request.
			tl[ev.Target].accepted++
			tl[ev.Actor].incAccepted++
		}
	}

	var sybSent, sybAccepted, normSent, normAccepted int
	for _, id := range pop.Sybils {
		sybSent += tl[id].sent
		sybAccepted += tl[id].accepted
	}
	for _, id := range pop.Normals {
		normSent += tl[id].sent
		normAccepted += tl[id].accepted
	}
	if sybSent == 0 || normSent == 0 {
		t.Fatalf("no activity: sybSent=%d normSent=%d", sybSent, normSent)
	}

	// Figure 2 shape: Sybil outgoing accept ratio far below normal.
	sybRatio := float64(sybAccepted) / float64(sybSent)
	normRatio := float64(normAccepted) / float64(normSent)
	if sybRatio < 0.10 || sybRatio > 0.45 {
		t.Errorf("sybil outgoing accept ratio = %.3f, want ≈0.26", sybRatio)
	}
	if normRatio < 0.60 || normRatio > 0.92 {
		t.Errorf("normal outgoing accept ratio = %.3f, want ≈0.79", normRatio)
	}
	if normRatio-sybRatio < 0.25 {
		t.Errorf("accept ratios not separated: sybil %.3f normal %.3f", sybRatio, normRatio)
	}

	// Figure 1 shape: Sybils send at far higher rates than normals.
	sybPer := float64(sybSent) / float64(len(pop.Sybils))
	normPer := float64(normSent) / float64(len(pop.Normals))
	if sybPer < 20*normPer {
		t.Errorf("sybil volume not dominant: sybil %.1f/acct normal %.1f/acct", sybPer, normPer)
	}

	// Figure 3 shape: Sybils accept essentially every incoming request.
	var sybInc, sybIncAcc int
	for _, id := range pop.Sybils {
		sybInc += tl[id].incoming
		sybIncAcc += tl[id].incAccepted
	}
	if sybInc > 20 { // only meaningful with some incoming volume
		incRatio := float64(sybIncAcc) / float64(sybInc)
		if incRatio < 0.80 {
			t.Errorf("sybil incoming accept ratio = %.3f, want ≈1", incRatio)
		}
	}

	// Sybil edges exist but are a small minority of Sybil friendships
	// (Figure 5 shape: most Sybil edges are attack edges).
	g := pop.Net.Graph()
	isSybil := make(map[osn.AccountID]bool, len(pop.Sybils))
	for _, id := range pop.Sybils {
		isSybil[id] = true
	}
	sybilEdges, attackEdges := 0, 0
	for _, id := range pop.Sybils {
		for _, e := range g.Neighbors(id) {
			switch {
			case !isSybil[e.To]:
				attackEdges++
			case id < e.To:
				sybilEdges++
			}
		}
	}
	if attackEdges == 0 {
		t.Fatal("no attack edges formed")
	}
	if sybilEdges >= attackEdges {
		t.Errorf("sybil edges (%d) not below attack edges (%d)", sybilEdges, attackEdges)
	}

	// Figure 4 shape: normal first-50 clustering well above Sybil.
	var normCC, sybCC []float64
	for _, id := range pop.Normals {
		if g.Degree(id) >= 2 {
			normCC = append(normCC, g.ClusteringFirstK(id, 50))
		}
	}
	for _, id := range pop.Sybils {
		if g.Degree(id) >= 2 {
			sybCC = append(sybCC, g.ClusteringFirstK(id, 50))
		}
	}
	mn, ms := stats.Mean(normCC), stats.Mean(sybCC)
	if mn < 5*ms {
		t.Errorf("clustering not separated: normal %.4f sybil %.4f", mn, ms)
	}
	if mn < 0.005 {
		t.Errorf("normal clustering too low: %.5f", mn)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism check in -short mode")
	}
	a := buildSmallCampaign(t, 99, 300, 40)
	b := buildSmallCampaign(t, 99, 300, 40)
	ea, eb := a.Net.Events(), b.Net.Events()
	if len(ea) != len(eb) {
		t.Fatalf("event counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if a.Net.Graph().NumEdges() != b.Net.Graph().NumEdges() {
		t.Fatal("edge counts differ")
	}
}

func TestCampaignSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sensitivity in -short mode")
	}
	a := buildSmallCampaign(t, 1, 300, 40)
	b := buildSmallCampaign(t, 2, 300, 40)
	if len(a.Net.Events()) == len(b.Net.Events()) &&
		a.Net.Graph().NumEdges() == b.Net.Graph().NumEdges() {
		t.Fatal("different seeds produced identical campaigns")
	}
}

func TestSybilGenderSkew(t *testing.T) {
	pop := NewPopulation(5, DefaultParams())
	pop.Bootstrap(50)
	pop.LaunchSybils(1000, sim.TicksPerHour)
	females := 0
	for _, id := range pop.Sybils {
		if pop.Net.Account(id).Gender == osn.Female {
			females++
		}
	}
	frac := float64(females) / float64(len(pop.Sybils))
	if frac < 0.72 || frac > 0.83 {
		t.Fatalf("sybil female fraction = %v, want ~0.773", frac)
	}
}

func TestCreatePageKeepsTraitsAligned(t *testing.T) {
	pop := NewPopulation(6, DefaultParams())
	pop.Bootstrap(20)
	pg := pop.CreatePage(0)
	if pop.Net.Account(pg).Kind != osn.Page {
		t.Fatal("page kind wrong")
	}
	// Must not panic on trait lookup after page creation.
	pop.LaunchSybils(3, 1)
	_ = pop.trait(pop.Sybils[0])
}

func TestRunForTwicePanics(t *testing.T) {
	pop := NewPopulation(8, DefaultParams())
	pop.Bootstrap(10)
	pop.RunFor(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second RunFor did not panic")
		}
	}()
	pop.RunFor(1)
}

func TestHasMutualFriend(t *testing.T) {
	g := graph.New(0)
	g.AddNodes(4)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(0, 3, 0)
	if !hasMutualFriend(g, 0, 1) {
		t.Fatal("mutual friend via 2 not found")
	}
	if hasMutualFriend(g, 1, 3) {
		t.Fatal("phantom mutual friend")
	}
}
