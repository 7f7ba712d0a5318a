// Package experiments regenerates every table and figure in the
// paper's evaluation. Each driver returns a Report containing the
// rendered series/table (what cmd/experiments prints) plus the key
// scalar metrics (what the benchmark harness and regression tests
// assert against the paper's numbers).
//
// Figures 1–4 and Table 1 are behavioural: they run the full
// agent-level campaign simulation. Figures 5–9 and Table 2 are
// topological: they run the scalable sybtopo generative model at
// paper/10 scale by default. EXPERIMENTS.md records paper-vs-measured
// for every entry.
package experiments

import (
	"fmt"
	"strings"

	"sybilwild/internal/agents"
	"sybilwild/internal/features"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

// Report is one experiment's output.
type Report struct {
	ID     string
	Title  string
	Body   string             // rendered tables/series for humans
	Values map[string]float64 // key metrics for assertions
}

func (r Report) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Body)
}

// GroundTruthConfig sizes the behavioural campaign behind Figures 1–4
// and Table 1.
type GroundTruthConfig struct {
	Seed     int64
	Normals  int
	Sybils   int
	Hours    int64 // observation window (the paper measures over 400 h)
	ArriveH  int64 // sybil arrival spread, hours
	Params   agents.Params
	ShortRun bool // trimmed sizes for unit tests
}

// DefaultGroundTruth mirrors the paper's 400-hour measurement with a
// Sybil:normal ratio of 1:80: the Sybils' snowball-sampled target
// pools then cannot run through a small population of normals, which
// would saturate the request and accept rates Figures 1–4 measure.
func DefaultGroundTruth(seed int64) GroundTruthConfig {
	return GroundTruthConfig{
		Seed:    seed,
		Normals: 16000,
		Sybils:  200,
		Hours:   400,
		ArriveH: 100,
		Params:  agents.DefaultParams(),
	}
}

// SmallGroundTruth is a fast configuration for tests.
func SmallGroundTruth(seed int64) GroundTruthConfig {
	return GroundTruthConfig{
		Seed:     seed,
		Normals:  4000,
		Sybils:   60,
		Hours:    400,
		ArriveH:  100,
		Params:   agents.DefaultParams(),
		ShortRun: true,
	}
}

// GroundTruth is a finished campaign plus its labelled feature
// dataset, shared by the behavioural experiments.
type GroundTruth struct {
	Cfg GroundTruthConfig
	Pop *agents.Population
	DS  features.Dataset
	// SybilVecs/NormalVecs split DS by ground truth for CDF building.
	SybilVecs  []features.Vector
	NormalVecs []features.Vector
}

// BuildGroundTruth runs the campaign and extracts features once.
func BuildGroundTruth(cfg GroundTruthConfig) *GroundTruth {
	pop := agents.NewPopulation(cfg.Seed, cfg.Params)
	pop.Bootstrap(cfg.Normals)
	pop.LaunchSybils(cfg.Sybils, cfg.ArriveH*sim.TicksPerHour)
	pop.RunFor(cfg.Hours * sim.TicksPerHour)
	ds := features.Labelled(pop.Net, pop.Sybils, pop.Normals)
	gt := &GroundTruth{Cfg: cfg, Pop: pop, DS: ds}
	for i, v := range ds.Vectors {
		if ds.Labels[i] {
			gt.SybilVecs = append(gt.SybilVecs, v)
		} else {
			gt.NormalVecs = append(gt.NormalVecs, v)
		}
	}
	return gt
}

// activeOnly filters vectors to accounts that sent ≥1 request (the
// paper's per-account CDFs are over accounts with observable
// behaviour).
func activeOnly(vs []features.Vector) []features.Vector {
	out := vs[:0:0]
	for _, v := range vs {
		if v.OutSent > 0 {
			out = append(out, v)
		}
	}
	return out
}

func collect(vs []features.Vector, f func(features.Vector) float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = f(v)
	}
	return out
}

func renderSeries(name string, e *stats.ECDF, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "series %s (n=%d):\n", name, e.N())
	for _, p := range e.Points(n) {
		fmt.Fprintf(&b, "  x=%-12.4g cdf=%6.2f%%\n", p.X, p.Y)
	}
	return b.String()
}

// IDs lists all experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"fig1", "fig2", "fig3", "fig4", "table1",
		"fig5", "fig6", "table2", "fig7", "fig8", "fig9",
		"table3", "ext1", "ext2", "ext3",
	}
}

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
