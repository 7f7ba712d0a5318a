package sybtopo

import (
	"testing"

	"sybilwild/internal/graph"
)

func genSmall(t *testing.T) *Topology {
	t.Helper()
	return Generate(SmallConfig(1))
}

func TestGenerateBasicShape(t *testing.T) {
	topo := genSmall(t)
	n := topo.NumSybils()
	if n < 6000 || n > 7000 {
		t.Fatalf("sybils = %d, want ≈6677 at 1/100 scale", n)
	}
	if topo.SybilGraph.NumNodes() != n {
		t.Fatal("graph size mismatch")
	}
	// Arrivals sorted.
	for i := 1; i < n; i++ {
		if topo.Arrival[i] < topo.Arrival[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	for i := 0; i < n; i++ {
		if topo.AttackDeg[i] < 1 {
			t.Fatalf("attack degree %d at %d", topo.AttackDeg[i], i)
		}
		if topo.Window[i] <= 0 {
			t.Fatal("non-positive window")
		}
	}
}

func TestFracWithSybilEdgePaperBand(t *testing.T) {
	topo := genSmall(t)
	frac := topo.FracWithSybilEdge()
	// Paper §3.2: ~20% of Sybils have ≥1 Sybil edge. Allow a band.
	if frac < 0.10 || frac > 0.32 {
		t.Fatalf("frac with sybil edge = %.3f, want ≈0.20", frac)
	}
}

func TestGiantComponentShape(t *testing.T) {
	topo := genSmall(t)
	comps := topo.Components()
	if len(comps) < 20 {
		t.Fatalf("components = %d, want many", len(comps))
	}
	connected := 0
	for _, c := range comps {
		connected += c.Sybils
	}
	giant := comps[0]
	// The giant component holds a large share of connected Sybils
	// (paper: 63,541 of ~133K connected ≈ 48%).
	share := float64(giant.Sybils) / float64(connected)
	if share < 0.25 || share > 0.85 {
		t.Fatalf("giant share of connected = %.3f", share)
	}
	// 98% of components have <10 members (Figure 6).
	small := 0
	for _, c := range comps {
		if c.Sybils < 10 {
			small++
		}
	}
	if frac := float64(small) / float64(len(comps)); frac < 0.93 {
		t.Fatalf("small-component fraction = %.3f, want ≥0.93", frac)
	}
}

func TestAttackEdgesExceedSybilEdgesPerComponent(t *testing.T) {
	topo := genSmall(t)
	for i, c := range topo.Components() {
		if c.AtkEdges <= int64(c.SybilEdges) {
			t.Fatalf("component %d: attack %d ≤ sybil %d (Figure 7 violated)",
				i, c.AtkEdges, c.SybilEdges)
		}
	}
}

func TestGiantDegreeDistribution(t *testing.T) {
	topo := genSmall(t)
	giant := topo.GiantComponent()
	deg1, le10 := 0, 0
	for _, m := range giant.Members {
		d := topo.SybilGraph.Degree(m)
		if d == 1 {
			deg1++
		}
		if d <= 10 {
			le10++
		}
	}
	n := float64(giant.Sybils)
	// Paper Figure 9: 34.5% degree 1; 93.7% ≤ 10. Loose bands.
	if f := float64(deg1) / n; f < 0.20 || f > 0.60 {
		t.Fatalf("giant degree-1 fraction = %.3f, want ≈0.345", f)
	}
	if f := float64(le10) / n; f < 0.80 {
		t.Fatalf("giant ≤10 fraction = %.3f, want ≈0.937", f)
	}
}

func TestNarrowComponentsDetached(t *testing.T) {
	topo := genSmall(t)
	comps := topo.Components()
	giantSet := map[graph.NodeID]struct{}{}
	for _, m := range comps[0].Members {
		giantSet[m] = struct{}{}
	}
	// No narrow-fleet Sybil may sit inside the giant component: narrow
	// fleets are invisible to global crawls by construction.
	for i := 0; i < topo.NumSybils(); i++ {
		if op := topo.Op[i]; op >= 0 && topo.Operators[op].Narrow {
			if _, ok := giantSet[graph.NodeID(i)]; ok {
				t.Fatalf("narrow sybil %d inside giant component", i)
			}
		}
	}
	// The largest narrow fleet shows up as a single sizeable component.
	var largestNarrow int
	for _, op := range topo.Operators {
		if op.Narrow && op.Last-op.First+1 > largestNarrow {
			largestNarrow = op.Last - op.First + 1
		}
	}
	found := false
	for _, c := range comps[1:] {
		if c.Sybils >= largestNarrow*2/3 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no component matching largest narrow fleet (%d members)", largestNarrow)
	}
}

func TestAudienceNarrowVsWide(t *testing.T) {
	topo := genSmall(t)
	comps := topo.Components()
	giant := comps[0]
	topo.FillAudience(&giant)
	if giant.Audience == 0 {
		t.Fatal("giant audience zero")
	}
	// Find the biggest narrow component and compare audience densities:
	// narrow fleets hammer a small pool, so audience/attack-edges is far
	// smaller than the giant's (Table 2, rows 1 vs 2).
	for i := range comps[1:] {
		c := comps[1+i]
		if c.Sybils < 20 {
			continue
		}
		m := c.Members[0]
		if op := topo.Op[m]; op >= 0 && topo.Operators[op].Narrow {
			topo.FillAudience(&c)
			gDens := float64(giant.Audience) / float64(giant.AtkEdges)
			nDens := float64(c.Audience) / float64(c.AtkEdges)
			if nDens >= gDens {
				t.Fatalf("narrow audience density %.4f not below giant %.4f", nDens, gDens)
			}
			return
		}
	}
	t.Skip("no sizeable narrow component in this seed")
}

func TestEdgeOrderReconstruction(t *testing.T) {
	topo := genSmall(t)
	giant := topo.GiantComponent()
	for _, m := range giant.Members[:min(200, len(giant.Members))] {
		eo := topo.EdgeOrderOf(m)
		if eo.TotalEdges < len(eo.SybilRanks) {
			t.Fatalf("total %d < sybil ranks %d", eo.TotalEdges, len(eo.SybilRanks))
		}
		for i, rk := range eo.SybilRanks {
			if rk < 0 || rk >= eo.TotalEdges {
				t.Fatalf("rank %d outside [0,%d)", rk, eo.TotalEdges)
			}
			if i > 0 && rk < eo.SybilRanks[i-1] {
				t.Fatal("ranks not ascending")
			}
		}
	}
}

func TestIntentionalEdgesComeFirst(t *testing.T) {
	topo := genSmall(t)
	// Members of intentional fleets have their first Sybil edge at the
	// very start of their friend list.
	checked := 0
	for i := 0; i < topo.NumSybils(); i++ {
		id := graph.NodeID(i)
		if !topo.IsIntentional(id) {
			continue
		}
		op := topo.Operators[topo.Op[i]]
		if i == op.First {
			continue // the fleet's first account links to nobody earlier
		}
		eo := topo.EdgeOrderOf(id)
		if len(eo.SybilRanks) == 0 {
			t.Fatalf("intentional sybil %d has no sybil edges", i)
		}
		// The chain edge was created at arrival time ⇒ rank ≈ 0. Allow a
		// tiny band for integer truncation.
		if eo.SybilRanks[0] > eo.TotalEdges/20 {
			t.Fatalf("intentional sybil %d first sybil edge at rank %d of %d",
				i, eo.SybilRanks[0], eo.TotalEdges)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no intentional sybils generated")
	}
}

func TestAccidentalEdgesSpreadOut(t *testing.T) {
	topo := genSmall(t)
	giant := topo.GiantComponent()
	// Pool normalized ranks of Sybil edges of non-intentional giant
	// members; they should be spread, not clustered at the start
	// (Figure 8: "almost uniformly random").
	var fracs []float64
	for _, m := range giant.Members {
		if topo.IsIntentional(m) {
			continue
		}
		eo := topo.EdgeOrderOf(m)
		if eo.TotalEdges < 2 {
			continue
		}
		for _, rk := range eo.SybilRanks {
			fracs = append(fracs, float64(rk)/float64(eo.TotalEdges-1))
		}
	}
	if len(fracs) < 50 {
		t.Skipf("too few accidental edges to test: %d", len(fracs))
	}
	var sum float64
	for _, f := range fracs {
		sum += f
	}
	mean := sum / float64(len(fracs))
	if mean < 0.35 || mean > 0.65 {
		t.Fatalf("accidental edge position mean = %.3f, want ≈0.5", mean)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(SmallConfig(7))
	b := Generate(SmallConfig(7))
	if a.NumSybils() != b.NumSybils() || a.SybilGraph.NumEdges() != b.SybilGraph.NumEdges() {
		t.Fatal("same seed, different topology")
	}
	for i := 0; i < a.NumSybils(); i += 97 {
		ta := attackTargets(a, i)
		tb := attackTargets(b, i)
		if len(ta) != len(tb) {
			t.Fatal("target regeneration differs")
		}
		for k := range ta {
			if ta[k] != tb[k] {
				t.Fatal("target values differ")
			}
		}
	}
}

// attackTargets returns Sybil i's regenerated attack-target list.
func attackTargets(t *Topology, i int) []int64 {
	var out []int64
	t.eachAttackTarget(i, func(v int64) { out = append(out, v) })
	return out
}

func TestAttackTargetsWithinPool(t *testing.T) {
	topo := genSmall(t)
	for i := 0; i < topo.NumSybils(); i += 13 {
		op := topo.Op[i]
		targets := attackTargets(topo, i)
		if len(targets) != int(topo.AttackDeg[i]) {
			t.Fatalf("target count %d != attack degree %d", len(targets), topo.AttackDeg[i])
		}
		for _, tg := range targets {
			if tg < 0 || tg >= topo.Normals {
				t.Fatalf("target %d outside normal population", tg)
			}
			if op >= 0 && topo.Operators[op].Narrow {
				o := topo.Operators[op]
				if tg < o.PoolStart || tg >= o.PoolStart+o.PoolSize {
					t.Fatalf("narrow target %d outside pool [%d,%d)", tg, o.PoolStart, o.PoolStart+o.PoolSize)
				}
			}
		}
	}
}
