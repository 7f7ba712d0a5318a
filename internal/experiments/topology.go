package experiments

import (
	"fmt"
	"sort"
	"strings"

	"sybilwild/internal/graph"
	"sybilwild/internal/stats"
	"sybilwild/internal/sybtopo"
)

// Fig5 — Degree distribution of Sybil accounts: all edges vs Sybil
// edges only. Paper: all-edges distribution is unremarkable; only
// ≈20% of Sybils have any Sybil edge.
func Fig5(topo *sybtopo.Topology) Report {
	all := topo.TotalDegree()
	sybOnly := topo.SybilDegree()
	allF := make([]float64, len(all))
	var sybF []float64
	for i, d := range all {
		allF[i] = float64(d)
	}
	for _, d := range sybOnly {
		if d > 0 {
			sybF = append(sybF, float64(d))
		}
	}
	frac := topo.FracWithSybilEdge()
	ae := stats.NewECDF(allF)
	se := stats.NewECDF(sybF)

	var b strings.Builder
	b.WriteString(renderSeries("All edges", ae, 10))
	b.WriteString(renderSeries("Sybil edges (connected Sybils only)", se, 10))
	fmt.Fprintf(&b, "Sybils with ≥1 Sybil edge: %s (paper ≈20%%)\n", pct(frac))
	fmt.Fprintf(&b, "median total degree: %.0f\n", ae.Quantile(0.5))
	return Report{
		ID:    "fig5",
		Title: "The degree of Sybil accounts",
		Body:  b.String(),
		Values: map[string]float64{
			"frac_with_sybil_edge": frac,
			"median_total_degree":  ae.Quantile(0.5),
		},
	}
}

// Fig6 — Size distribution of connected Sybil components. Paper: 98%
// of components have <10 members, yet one giant component holds most
// connected Sybils.
func Fig6(topo *sybtopo.Topology) Report {
	comps := topo.Components()
	sizes := make([]float64, len(comps))
	connected := 0
	small := 0
	for i, c := range comps {
		sizes[i] = float64(c.Sybils)
		connected += c.Sybils
		if c.Sybils < 10 {
			small++
		}
	}
	e := stats.NewECDF(sizes)
	fracSmall := float64(small) / float64(max(len(comps), 1))
	giantShare := 0.0
	if connected > 0 && len(comps) > 0 {
		giantShare = float64(comps[0].Sybils) / float64(connected)
	}

	var b strings.Builder
	b.WriteString(renderSeries("component size", e, 10))
	fmt.Fprintf(&b, "components: %d; <10 members: %s (paper 98%%)\n", len(comps), pct(fracSmall))
	fmt.Fprintf(&b, "giant component: %d Sybils = %s of connected Sybils\n", comps[0].Sybils, pct(giantShare))
	return Report{
		ID:    "fig6",
		Title: "The size of connected Sybil components",
		Body:  b.String(),
		Values: map[string]float64{
			"num_components": float64(len(comps)),
			"frac_small":     fracSmall,
			"giant_share":    giantShare,
		},
	}
}

// Table2 — The five largest Sybil components: Sybils, Sybil edges,
// attack edges, audience.
func Table2(topo *sybtopo.Topology) Report {
	comps := topo.Components()
	n := min(5, len(comps))
	rows := make([][]string, 0, n)
	vals := map[string]float64{}
	for i := 0; i < n; i++ {
		c := comps[i]
		topo.FillAudience(&c)
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Sybils),
			fmt.Sprintf("%d", c.SybilEdges),
			fmt.Sprintf("%d", c.AtkEdges),
			fmt.Sprintf("%d", c.Audience),
		})
		vals[fmt.Sprintf("c%d_sybils", i)] = float64(c.Sybils)
		vals[fmt.Sprintf("c%d_sybil_edges", i)] = float64(c.SybilEdges)
		vals[fmt.Sprintf("c%d_attack_edges", i)] = float64(c.AtkEdges)
		vals[fmt.Sprintf("c%d_audience", i)] = float64(c.Audience)
	}
	body := stats.Table([]string{"Sybils", "Sybil Edges", "Attack Edges", "Audience"}, rows)
	return Report{
		ID:     "table2",
		Title:  "Statistics for the five largest Sybil components",
		Body:   body,
		Values: vals,
	}
}

// Fig7 — Scatter of Sybil edges vs attack edges per component. Paper:
// every component lies above y=x (more attack edges than Sybil edges).
func Fig7(topo *sybtopo.Topology) Report {
	comps := topo.Components()
	above := 0
	var b strings.Builder
	b.WriteString("sybil_edges  attack_edges\n")
	for i, c := range comps {
		if int64(c.SybilEdges) < c.AtkEdges {
			above++
		}
		if i < 20 {
			fmt.Fprintf(&b, "%11d  %12d\n", c.SybilEdges, c.AtkEdges)
		}
	}
	frac := float64(above) / float64(max(len(comps), 1))
	fmt.Fprintf(&b, "... (%d components)\ncomponents above y=x: %s (paper 100%%)\n", len(comps), pct(frac))
	return Report{
		ID:    "fig7",
		Title: "Sybil edges vs attack edges per component",
		Body:  b.String(),
		Values: map[string]float64{
			"frac_above_diagonal": frac,
		},
	}
}

// Fig8 — Order in which Sybils in the giant component added their
// Sybil friends. Paper: positions are nearly uniform (accidental),
// with a handful of solid vertical lines (intentional).
func Fig8(topo *sybtopo.Topology, sample int) Report {
	giant := topo.GiantComponent()
	r := stats.NewRand(topo.Cfg.Seed + 8)
	members := append([]graph.NodeID(nil), giant.Members...)
	stats.Shuffle(r, members)
	if len(members) > sample {
		members = members[:sample]
	}

	var positions []float64
	intentionalCols := 0
	detectedIntentional := 0
	for _, m := range members {
		eo := topo.EdgeOrderOf(m)
		if topo.IsIntentional(m) {
			intentionalCols++
		}
		if detectIntentionalColumn(eo) {
			detectedIntentional++
		}
		if eo.TotalEdges < 2 {
			continue
		}
		for _, rk := range eo.SybilRanks {
			positions = append(positions, float64(rk)/float64(eo.TotalEdges-1))
		}
	}
	mean := stats.Mean(positions)
	// Kolmogorov–Smirnov distance from uniform [0,1].
	ks := ksUniform(positions)

	var b strings.Builder
	fmt.Fprintf(&b, "sampled %d giant-component Sybils; %d Sybil-edge positions\n", len(members), len(positions))
	fmt.Fprintf(&b, "normalized position mean: %.3f (uniform ⇒ 0.5)\n", mean)
	fmt.Fprintf(&b, "KS distance from uniform: %.3f\n", ks)
	fmt.Fprintf(&b, "ground-truth intentional columns: %d; detected by initial-run heuristic: %d\n",
		intentionalCols, detectedIntentional)
	return Report{
		ID:    "fig8",
		Title: "The order of adding Sybil friends",
		Body:  b.String(),
		Values: map[string]float64{
			"position_mean":        mean,
			"ks_uniform":           ks,
			"intentional_truth":    float64(intentionalCols),
			"intentional_detected": float64(detectedIntentional),
		},
	}
}

// detectIntentionalColumn flags a Figure 8 column as intentional when
// the account's Sybil edges form a run at the very start of its friend
// list (the "solid vertical line" the paper circles).
func detectIntentionalColumn(eo sybtopo.EdgeOrder) bool {
	if len(eo.SybilRanks) == 0 || eo.TotalEdges < 10 {
		return false
	}
	head := eo.TotalEdges / 20
	if head < 2 {
		head = 2
	}
	inHead := 0
	for _, rk := range eo.SybilRanks {
		if rk <= head {
			inHead++
		}
	}
	// Deliberate chains link at account-creation time, so the first
	// Sybil edge sits at (essentially) rank zero; accidental edges land
	// there only ~2/total of the time.
	return inHead*2 >= len(eo.SybilRanks) && eo.SybilRanks[0] <= 1
}

func ksUniform(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var d float64
	n := float64(len(s))
	for i, x := range s {
		lo := float64(i)/n - x
		hi := x - float64(i+1)/n
		if lo < 0 {
			lo = -lo
		}
		if hi < 0 {
			hi = -hi
		}
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}

// Fig9 — Degree distribution within the giant Sybil component. Paper:
// 34.5% have degree 1 and 93.7% have degree ≤10 — a loose component no
// attacker would build on purpose.
func Fig9(topo *sybtopo.Topology) Report {
	giant := topo.GiantComponent()
	var degs []float64
	deg1, le10 := 0, 0
	for _, m := range giant.Members {
		d := topo.SybilGraph.Degree(m)
		degs = append(degs, float64(d))
		if d == 1 {
			deg1++
		}
		if d <= 10 {
			le10++
		}
	}
	e := stats.NewECDF(degs)
	n := float64(len(giant.Members))
	f1 := float64(deg1) / n
	f10 := float64(le10) / n

	var b strings.Builder
	b.WriteString(renderSeries("giant component Sybil-edge degree", e, 10))
	fmt.Fprintf(&b, "degree 1: %s (paper 34.5%%); degree ≤10: %s (paper 93.7%%)\n", pct(f1), pct(f10))
	return Report{
		ID:    "fig9",
		Title: "Degree distribution of the largest Sybil component",
		Body:  b.String(),
		Values: map[string]float64{
			"frac_deg1":  f1,
			"frac_le10":  f10,
			"giant_size": n,
		},
	}
}
