// Command topology runs the paper's §3 analyses over a generated
// 660K-scale (scaled by -scale) Sybil population — degree makeup,
// connected components, the giant-but-loose component, and why
// community-based defenses cannot see any of it.
package main

import (
	"flag"
	"fmt"

	"sybilwild/internal/graph"
	"sybilwild/internal/sybtopo"
)

func main() {
	scale := flag.Float64("scale", 0.02, "fraction of paper scale (1.0 = 667,723 Sybils)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	flag.Parse()

	cfg := sybtopo.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	topo := sybtopo.Generate(cfg)
	fmt.Printf("generated %d Sybils against a %d-user population\n", topo.NumSybils(), topo.Normals)

	// §3.2: most Sybils have no Sybil edges at all.
	fmt.Printf("Sybils with ≥1 Sybil edge: %.1f%% (paper: ~20%%)\n", 100*topo.FracWithSybilEdge())

	// §3.3: components are tiny except one giant, loose component.
	comps := topo.Components()
	connected := 0
	for _, c := range comps {
		connected += c.Sybils
	}
	fmt.Printf("connected-Sybil components: %d\n", len(comps))
	fmt.Println("\nfive largest components (Table 2):")
	fmt.Printf("%10s %12s %13s %10s\n", "Sybils", "Sybil edges", "Attack edges", "Audience")
	for i := 0; i < 5 && i < len(comps); i++ {
		c := comps[i]
		topo.FillAudience(&c)
		fmt.Printf("%10d %12d %13d %10d\n", c.Sybils, c.SybilEdges, c.AtkEdges, c.Audience)
	}

	giant := comps[0]
	deg1 := 0
	for _, m := range giant.Members {
		if topo.SybilGraph.Degree(m) == 1 {
			deg1++
		}
	}
	fmt.Printf("\ngiant component: %d Sybils (%.0f%% of connected), %.1f%% with degree 1\n",
		giant.Sybils, 100*float64(giant.Sybils)/float64(connected),
		100*float64(deg1)/float64(giant.Sybils))

	// §3.4: edge creation order — accidental vs intentional.
	intentional := 0
	for _, m := range giant.Members {
		if topo.IsIntentional(m) {
			intentional++
		}
	}
	fmt.Printf("intentionally-linked accounts in giant component: %d of %d\n",
		intentional, giant.Sybils)

	// A taste of Figure 8: print a few creation-order columns.
	fmt.Println("\nedge-creation order (first 5 giant members: sybil-edge ranks / total):")
	for _, m := range giant.Members[:min(5, len(giant.Members))] {
		eo := topo.EdgeOrderOf(m)
		fmt.Printf("  sybil %6d: %v / %d\n", m, eo.SybilRanks, eo.TotalEdges)
	}
	_ = graph.NodeID(0)
}
