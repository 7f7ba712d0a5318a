package sybilwild

// The benchmark harness regenerates every table and figure in the
// paper's evaluation (each bench is named after the figure or table it
// regenerates and runs that experiment's internal/experiments driver)
// and reports the headline metric of each as a custom benchmark unit,
// so `go test -bench=. -benchmem` both times the pipeline and shows
// the reproduced numbers next to the paper's.
//
// Workload construction (the shared campaign simulation and the
// generated paper/10-scale topology) happens once, outside the timed
// region; each iteration times the analysis driver itself.

import (
	"sync"
	"testing"

	"sybilwild/internal/agents"
	"sybilwild/internal/campaign"
	"sybilwild/internal/detector"
	"sybilwild/internal/experiments"
	"sybilwild/internal/features"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
	"sybilwild/internal/svm"
	"sybilwild/internal/sybtopo"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
)

// sharedRunner builds the two shared workloads once per process. The
// behavioural campaign uses a reduced (but unsaturated) population so
// the full bench suite stays in CI budget; the topology runs at the
// experiment default (paper/10 ⇒ ~66,772 Sybils).
func sharedRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner = experiments.NewRunner(1)
		benchRunner.GT.Normals = 8000
		benchRunner.GT.Sybils = 100
		benchRunner.GroundTruth() // build outside timers
		benchRunner.Topology()
	})
	return benchRunner
}

// benchExperiment times one driver and surfaces selected metrics.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	r := sharedRunner(b)
	b.ResetTimer()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		b.ReportMetric(rep.Values[m], m)
	}
}

// --- One benchmark per paper table/figure ---

func BenchmarkFig1InvitationFrequency(b *testing.B) {
	benchExperiment(b, "fig1", "sybil_frac_ge40_per_h", "cut40_tpr", "cut40_fpr")
}

func BenchmarkFig2OutgoingAccept(b *testing.B) {
	benchExperiment(b, "fig2", "sybil_mean", "normal_mean")
}

func BenchmarkFig3IncomingAccept(b *testing.B) {
	benchExperiment(b, "fig3", "sybil_frac_accept_all")
}

func BenchmarkFig4ClusteringCoefficient(b *testing.B) {
	benchExperiment(b, "fig4", "ratio")
}

func BenchmarkTable1Classifiers(b *testing.B) {
	benchExperiment(b, "table1", "svm_tpr", "svm_tnr", "thr_tpr", "thr_tnr")
}

func BenchmarkFig5SybilDegree(b *testing.B) {
	benchExperiment(b, "fig5", "frac_with_sybil_edge")
}

func BenchmarkFig6ComponentSizes(b *testing.B) {
	benchExperiment(b, "fig6", "frac_small", "giant_share")
}

func BenchmarkTable2LargestComponents(b *testing.B) {
	benchExperiment(b, "table2", "c0_sybils", "c0_attack_edges", "c0_audience")
}

func BenchmarkFig7EdgeScatter(b *testing.B) {
	benchExperiment(b, "fig7", "frac_above_diagonal")
}

func BenchmarkFig8EdgeOrder(b *testing.B) {
	benchExperiment(b, "fig8", "position_mean", "ks_uniform")
}

func BenchmarkFig9ComponentDegree(b *testing.B) {
	benchExperiment(b, "fig9", "frac_deg1", "frac_le10")
}

func BenchmarkTable3Tools(b *testing.B) {
	benchExperiment(b, "table3", "tools")
}

func BenchmarkExtCommunityDefense(b *testing.B) {
	benchExperiment(b, "ext1",
		"tight_gap_SybilGuard", "wild_gap_SybilGuard",
		"tight_gap_SumUp", "wild_gap_SumUp")
}

// --- Ablations: checks of the reproduction's own modelling choices,
// not figures of the paper ---

// BenchmarkAblationSimVsTopo cross-checks the agent-level simulation
// against the generative topology model at matched scale: the fraction
// of Sybils with ≥1 Sybil edge should land in the same band from both.
func BenchmarkAblationSimVsTopo(b *testing.B) {
	b.ReportAllocs()
	var simFrac, topoFrac float64
	for i := 0; i < b.N; i++ {
		pop := agents.NewPopulation(9, agents.DefaultParams())
		pop.Bootstrap(5000)
		pop.LaunchSybils(60, 100*sim.TicksPerHour)
		pop.RunFor(400 * sim.TicksPerHour)
		g := pop.Net.Graph()
		mask := make([]bool, g.NumNodes())
		for _, id := range pop.Sybils {
			mask[id] = true
		}
		with := 0
		for _, id := range pop.Sybils {
			for _, e := range g.Neighbors(id) {
				if mask[e.To] {
					with++
					break
				}
			}
		}
		simFrac = float64(with) / float64(len(pop.Sybils))

		topo := sybtopo.Generate(sybtopo.SmallConfig(9))
		topoFrac = topo.FracWithSybilEdge()
	}
	b.ReportMetric(simFrac, "sim_frac_sybil_edge")
	b.ReportMetric(topoFrac, "topo_frac_sybil_edge")
}

// BenchmarkAblationThresholdVsSVM measures per-account classification
// cost: the paper's point is the threshold rule matches the SVM at a
// fraction of the cost.
func BenchmarkAblationThresholdVsSVM(b *testing.B) {
	r := sharedRunner(b)
	gt := r.GroundTruth()
	vecs := gt.DS.Vectors
	x, y := gt.DS.Matrix()
	sc := svm.FitScaler(x)
	model := svm.Train(sc.Transform(x), y, svm.DefaultConfig())
	rule := detector.FitRule(gt.DS, detector.PaperRule())

	b.Run("Threshold", func(b *testing.B) {
		flagged := 0
		for i := 0; i < b.N; i++ {
			if rule.Classify(vecs[i%len(vecs)]) {
				flagged++
			}
		}
		_ = flagged
	})
	b.Run("SVM", func(b *testing.B) {
		flagged := 0
		for i := 0; i < b.N; i++ {
			if model.Classify(sc.TransformRow(x[i%len(x)])) {
				flagged++
			}
		}
		_ = flagged
	})
}

// BenchmarkAblationAdaptive injects behaviour drift (Sybils halving
// their invitation rates) and compares the static paper rule against
// the adaptive feedback detector.
func BenchmarkAblationAdaptive(b *testing.B) {
	r := stats.NewRand(4)
	mkVec := func(rate float64) features.Vector {
		return features.Vector{
			OutSent: 120, OutAccepted: int(120 * 0.25), OutAccept: 0.25,
			Freq1h: rate * (0.8 + 0.4*r.Float64()), CC: 0.001,
		}
	}
	normal := features.Vector{OutSent: 12, OutAccepted: 10, OutAccept: 0.83, Freq1h: 0.05, CC: 0.08}

	var staticTPR, adaptiveTPR float64
	for i := 0; i < b.N; i++ {
		static := detector.PaperRule()
		ad := detector.NewAdaptive(detector.PaperRule(), 400, 25)
		// Warm-up audits at the original behaviour.
		for k := 0; k < 100; k++ {
			ad.Audit(mkVec(55), true)
			ad.Audit(normal, false)
		}
		// Drift: rates fall to ~8/h; audits keep arriving.
		sCaught, aCaught, total := 0, 0, 0
		for k := 0; k < 400; k++ {
			v := mkVec(8)
			total++
			if static.Classify(v) {
				sCaught++
			}
			if ad.Classify(v) {
				aCaught++
			}
			ad.Audit(v, true)
			ad.Audit(normal, false)
		}
		staticTPR = float64(sCaught) / float64(total)
		adaptiveTPR = float64(aCaught) / float64(total)
	}
	b.ReportMetric(staticTPR, "static_tpr_after_drift")
	b.ReportMetric(adaptiveTPR, "adaptive_tpr_after_drift")
}

// BenchmarkAblationCCWindow compares the paper's first-50-friends
// clustering coefficient against the full-neighbourhood version: cost
// per account and Sybil/normal separation.
func BenchmarkAblationCCWindow(b *testing.B) {
	r := sharedRunner(b)
	gt := r.GroundTruth()
	g := gt.Pop.Net.Graph()
	ids := make([]graph.NodeID, 0, 2000)
	for _, id := range gt.Pop.Normals[:1000] {
		ids = append(ids, id)
	}
	ids = append(ids, gt.Pop.Sybils...)

	b.Run("First50", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			acc += g.ClusteringFirstK(ids[i%len(ids)], 50)
		}
		_ = acc
	})
	b.Run("FullNeighbourhood", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			id := ids[i%len(ids)]
			acc += g.ClusteringFirstK(id, g.Degree(id))
		}
		_ = acc
	})
}

// BenchmarkAblationSnowballBias sweeps the tool's popularity bias and
// reports the mean degree of sampled targets — the dial behind the
// giant Sybil component's formation (§3.4).
func BenchmarkAblationSnowballBias(b *testing.B) {
	r := sharedRunner(b)
	g := r.GroundTruth().Pop.Net.Graph()
	for _, bias := range []struct {
		name string
		v    float64
	}{{"bias0.0", 0}, {"bias0.5", 0.5}, {"bias1.0", 1}} {
		b.Run(bias.name, func(b *testing.B) {
			rng := stats.NewRand(11)
			var meanDeg float64
			for i := 0; i < b.N; i++ {
				seeds := []graph.NodeID{graph.NodeID(rng.Intn(g.NumNodes()))}
				sample := g.Snowball(rng, seeds, 100, bias.v)
				var sum float64
				for _, v := range sample {
					sum += float64(g.Degree(v))
				}
				if len(sample) > 0 {
					meanDeg = sum / float64(len(sample))
				}
			}
			b.ReportMetric(meanDeg, "mean_target_degree")
		})
	}
}

// --- Real-time hot path: the detection pipeline ---
//
// The workload, built once per process, is four rounds of the
// 100k-account burst campaign (internal/campaign) over a triangle-rich
// ring graph of its normal accounts (every clustering-coefficient
// evaluation does real work); its 2 % of Sybils are unembedded.
// Replaying it through detector.Pipeline one event at a time and in
// wire batches measures what the paper's deployment cares about:
// detection throughput on live traffic.

const (
	rtAccounts = 100_000
	rtRingDeg  = 8 // ring neighbours per side ⇒ degree 16
	rtRounds   = 4 // campaign rounds
)

var (
	rtOnce   sync.Once
	rtGraph  *graph.Graph
	rtEvents []osn.Event
)

// realtimeWorkload builds the shared graph and event stream outside
// any timed region.
func realtimeWorkload(b *testing.B) ([]osn.Event, *graph.Graph) {
	b.Helper()
	rtOnce.Do(func() {
		g := graph.New(rtAccounts)
		g.AddNodes(rtAccounts)
		for i := 0; i < rtAccounts; i++ {
			if campaign.IsSybil(osn.AccountID(i)) {
				continue // Sybils are unembedded: cc = 0
			}
			for j := 1; j <= rtRingDeg; j++ {
				v := (i + j) % rtAccounts
				if !campaign.IsSybil(osn.AccountID(v)) {
					g.AddEdge(graph.NodeID(i), graph.NodeID(v), int64(i))
				}
			}
		}
		rtGraph, rtEvents = g, campaign.Burst(7, rtAccounts, rtRounds)
	})
	return rtEvents, rtGraph
}

func reportRealtime(b *testing.B, flagged int, nEvents int) {
	b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	b.ReportMetric(float64(flagged), "flagged")
}

// replayPipeline feeds the production trace through a fresh pipeline
// per iteration, chunk events per Ingest call.
func replayPipeline(b *testing.B, events []osn.Event, chunk int, newPipeline func() *detector.Pipeline) {
	flagged := 0
	for i := 0; i < b.N; i++ {
		p := newPipeline()
		for off := 0; off < len(events); off += chunk {
			p.Ingest(detector.Batch{Events: events[off:min(off+chunk, len(events))]})
		}
		p.Close()
		flagged = p.FlaggedCount()
	}
	reportRealtime(b, flagged, len(events))
}

// BenchmarkPipeline replays the same trace through the pipeline one
// event per Ingest call — the worst case for its per-call overhead
// (one lock round trip per event) — over the static graph and in the
// configuration detectd actually ships with, where the pipeline
// rebuilds the graph from accept events.
func BenchmarkPipeline(b *testing.B) {
	events, g := realtimeWorkload(b)
	rule := detector.PaperRule()
	b.Run("static", func(b *testing.B) {
		replayPipeline(b, events, 1, func() *detector.Pipeline { return detector.NewPipeline(rule, g) })
	})
	b.Run("reconstruct", func(b *testing.B) {
		replayPipeline(b, events, 1, func() *detector.Pipeline {
			return detector.NewPipeline(rule, nil, detector.WithGraphReconstruction())
		})
	})
}

// BenchmarkPipelineBatch replays the trace through Ingest in
// wire-batch-sized chunks — the path detectd takes off the v2 feed.
func BenchmarkPipelineBatch(b *testing.B) {
	events, g := realtimeWorkload(b)
	rule := detector.PaperRule()
	const chunk = 256 // stream.DefaultMaxBatch
	replayPipeline(b, events, chunk, func() *detector.Pipeline { return detector.NewPipeline(rule, g) })
}

// BenchmarkCampaignSimulation times the full agent-level pipeline —
// the cost of generating one ground-truth campaign.
func BenchmarkCampaignSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := RunCampaign(CampaignConfig{
			Seed: int64(i), Normals: 3000, Sybils: 40, Hours: 400, Params: DefaultParams(),
		})
		_ = c.Network().NumAccounts()
	}
}

// BenchmarkTopologyGeneration times paper/10-scale topology synthesis.
func BenchmarkTopologyGeneration(b *testing.B) {
	b.ReportAllocs()
	cfg := sybtopo.DefaultConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		t := sybtopo.Generate(cfg)
		_ = t.NumSybils()
	}
}

// BenchmarkExt2Honeypots regenerates the honeypot extension: Sybil
// requests trapped by popular vs unpopular monitoring accounts.
func BenchmarkExt2Honeypots(b *testing.B) {
	benchExperiment(b, "ext2", "per_hp_popular", "per_hp_unpopular")
}

// BenchmarkExt3FeatureAblation regenerates the per-feature ablation of
// the detector (each §2.2 attribute's stand-alone accuracy).
func BenchmarkExt3FeatureAblation(b *testing.B) {
	benchExperiment(b, "ext3", "acc_freq1h", "acc_outAccept", "acc_cc", "acc_full")
}
