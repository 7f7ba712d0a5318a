package experiments

import (
	"fmt"

	"sybilwild/internal/sybtopo"
)

// Runner lazily builds the shared workloads (the behavioural campaign
// and the generated topology) and dispatches experiment IDs. The
// expensive inputs are built once and reused across experiments.
type Runner struct {
	GT   GroundTruthConfig
	Topo sybtopo.Config
	Ext  Ext1Config
	Ext2 Ext2Config
	// Fig8Sample is the number of giant-component Sybils sampled for
	// Figure 8 (the paper samples 1,000).
	Fig8Sample int

	gt   *GroundTruth
	topo *sybtopo.Topology
}

// NewRunner returns a paper-scale runner (topology at paper/10,
// behavioural campaign with 16K users).
func NewRunner(seed int64) *Runner {
	return &Runner{
		GT:         DefaultGroundTruth(seed),
		Topo:       topoWithSeed(sybtopo.DefaultConfig(), seed),
		Ext:        DefaultExt1(seed),
		Ext2:       DefaultExt2(seed),
		Fig8Sample: 1000,
	}
}

// NewSmallRunner returns a test-scale runner.
func NewSmallRunner(seed int64) *Runner {
	return &Runner{
		GT:         SmallGroundTruth(seed),
		Topo:       topoWithSeed(sybtopo.SmallConfig(seed), seed),
		Ext:        Ext1Config{Seed: seed, Normals: 1200, Sybils: 120},
		Ext2:       Ext2Config{Seed: seed, Normals: 2500, Sybils: 50, Honeypots: 20, Hours: 400},
		Fig8Sample: 300,
	}
}

func topoWithSeed(c sybtopo.Config, seed int64) sybtopo.Config {
	c.Seed = seed
	return c
}

// GroundTruth builds (once) and returns the behavioural campaign.
func (r *Runner) GroundTruth() *GroundTruth {
	if r.gt == nil {
		r.gt = BuildGroundTruth(r.GT)
	}
	return r.gt
}

// Topology builds (once) and returns the generated Sybil topology.
func (r *Runner) Topology() *sybtopo.Topology {
	if r.topo == nil {
		r.topo = sybtopo.Generate(r.Topo)
	}
	return r.topo
}

// Run dispatches one experiment by ID (see IDs).
func (r *Runner) Run(id string) (Report, error) {
	switch id {
	case "fig1":
		return Fig1(r.GroundTruth()), nil
	case "fig2":
		return Fig2(r.GroundTruth()), nil
	case "fig3":
		return Fig3(r.GroundTruth()), nil
	case "fig4":
		return Fig4(r.GroundTruth()), nil
	case "table1":
		return Table1(r.GroundTruth()), nil
	case "fig5":
		return Fig5(r.Topology()), nil
	case "fig6":
		return Fig6(r.Topology()), nil
	case "table2":
		return Table2(r.Topology()), nil
	case "fig7":
		return Fig7(r.Topology()), nil
	case "fig8":
		return Fig8(r.Topology(), r.Fig8Sample), nil
	case "fig9":
		return Fig9(r.Topology()), nil
	case "table3":
		return Table3(), nil
	case "ext1":
		return Ext1(r.Ext), nil
	case "ext2":
		return Ext2(r.Ext2), nil
	case "ext3":
		return Ext3(r.GroundTruth()), nil
	default:
		return Report{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
}
