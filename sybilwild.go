// Package sybilwild is a Go reproduction of "Uncovering Social Network
// Sybils in the Wild" (Yang et al., IMC 2011): a Renren-like OSN
// simulator with calibrated normal/Sybil behaviour models, the paper's
// threshold-based real-time Sybil detector (plus an SVM baseline), the
// community-based defenses whose assumptions the paper tests, and a
// harness that regenerates every table and figure in the paper's
// evaluation.
//
// This root package is the public facade: it re-exports the pieces a
// downstream user composes (campaign generation, feature extraction,
// detection, experiment drivers) while the implementations live in
// internal/ packages. See README.md for a tour (its "Repository
// layout" section is the package inventory) and docs/ARCHITECTURE.md
// for the runtime system.
package sybilwild

import (
	"fmt"

	"sybilwild/internal/agents"
	"sybilwild/internal/detector"
	"sybilwild/internal/experiments"
	"sybilwild/internal/features"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/svm"
)

// Re-exported core types. These aliases are the supported public API;
// their methods are documented on the internal types.
type (
	// Network is the Renren-substitute online social network.
	Network = osn.Network
	// Account is a user profile plus account state.
	Account = osn.Account
	// AccountID identifies an account (and its graph node).
	AccountID = osn.AccountID
	// Event is one operational-log record.
	Event = osn.Event
	// Population wires the OSN, event engine and behaviour agents.
	Population = agents.Population
	// Params are the calibrated behaviour constants.
	Params = agents.Params
	// FeatureVector holds one account's behavioural features.
	FeatureVector = features.Vector
	// FeatureDataset is a labelled feature matrix.
	FeatureDataset = features.Dataset
	// Rule is the paper's conjunctive threshold classifier.
	Rule = detector.Rule
	// AdaptiveDetector is the feedback-tuned threshold detector.
	AdaptiveDetector = detector.Adaptive
	// Pipeline is the real-time detection pipeline.
	Pipeline = detector.Pipeline
	// SVMConfig holds SVM training hyperparameters.
	SVMConfig = svm.Config
	// ExperimentReport is one experiment's rendered output + metrics.
	ExperimentReport = experiments.Report
)

// DefaultParams returns the paper-calibrated behaviour constants.
func DefaultParams() Params { return agents.DefaultParams() }

// PaperRule returns the threshold rule printed in §2.3 of the paper.
func PaperRule() Rule { return detector.PaperRule() }

// CampaignConfig sizes a Sybil attack campaign simulation.
type CampaignConfig struct {
	Seed    int64
	Normals int   // background user population
	Sybils  int   // attacking Sybil accounts
	Hours   int64 // observation window (the paper measures 400 h)
	Params  Params
}

// DefaultCampaign mirrors the paper's 400-hour measurement window at a
// laptop-friendly scale.
func DefaultCampaign(seed int64) CampaignConfig {
	return CampaignConfig{Seed: seed, Normals: 8000, Sybils: 100, Hours: 400, Params: DefaultParams()}
}

// Campaign is a finished simulation with ground truth attached.
type Campaign struct {
	Pop *Population
}

// RunCampaign simulates a Sybil attack campaign: it bootstraps the
// background network, launches tool-driven Sybil agents, and runs the
// observation window.
func RunCampaign(cfg CampaignConfig) *Campaign {
	if cfg.Normals <= 0 || cfg.Hours <= 0 {
		panic(fmt.Sprintf("sybilwild: invalid campaign config %+v", cfg))
	}
	pop := agents.NewPopulation(cfg.Seed, cfg.Params)
	pop.Bootstrap(cfg.Normals)
	pop.LaunchSybils(cfg.Sybils, cfg.Hours/4*sim.TicksPerHour)
	pop.RunFor(cfg.Hours * sim.TicksPerHour)
	return &Campaign{Pop: pop}
}

// Network returns the campaign's social network.
func (c *Campaign) Network() *Network { return c.Pop.Net }

// GroundTruth returns the labelled feature dataset for every account.
func (c *Campaign) GroundTruth() FeatureDataset {
	return features.Labelled(c.Pop.Net, c.Pop.Sybils, c.Pop.Normals)
}

// FitRule learns scale-appropriate thresholds from labelled data using
// the paper's per-feature cut procedure.
func FitRule(ds FeatureDataset) Rule {
	return detector.FitRule(ds, detector.PaperRule())
}

// ExtractFeatures computes the four behavioural features for the given
// accounts from a network's event log and graph.
func ExtractFeatures(net *Network, ids []AccountID) []FeatureVector {
	return features.Extract(net, ids)
}

// NewPipeline builds the real-time detection pipeline over a live
// network, judging an account on every checkEvery-th friend request it
// sends; attach it with net.RegisterObserver(p.Observe). onFlag, if
// not nil, is called once per flagged account with the triggering
// request's time, inside p.Observe and with the pipeline's lock held.
// It must not act on net directly: a ban emits an event that net
// delivers straight back to p.Observe, which then deadlocks. Have
// onFlag record the flag, and apply it from an observer registered
// after p.Observe — the ban still lands within the dispatch of the
// request that triggered it.
func NewPipeline(c detector.Classifier, net *Network, checkEvery int, onFlag func(AccountID, int64)) *Pipeline {
	opts := []detector.PipelineOption{detector.WithCheckEvery(checkEvery)}
	if onFlag != nil {
		opts = append(opts, detector.WithFlagHook(func(f detector.Flag) { onFlag(f.ID, f.At) }))
	}
	return detector.NewPipeline(c, net.Graph(), opts...)
}

// TrainSVM trains the from-scratch SVM; labels are ±1 with +1 = Sybil.
func TrainSVM(x [][]float64, y []float64, cfg SVMConfig) *svm.Model {
	return svm.Train(x, y, cfg)
}

// CrossValidateSVM runs stratified k-fold CV (the paper's Table 1
// protocol uses k = 5).
func CrossValidateSVM(ds FeatureDataset, k int, cfg SVMConfig) float64 {
	x, y := ds.Matrix()
	c := svm.CrossValidate(x, y, k, cfg)
	return c.Accuracy()
}

// DefaultSVMConfig returns hyperparameters suited to the Sybil
// feature space.
func DefaultSVMConfig() SVMConfig { return svm.DefaultConfig() }

// ExperimentIDs lists every reproducible table/figure identifier.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables or figures at
// paper/10 scale. For repeated runs share a runner via NewExperiments.
func RunExperiment(id string, seed int64) (ExperimentReport, error) {
	return experiments.NewRunner(seed).Run(id)
}

// Experiments is a reusable experiment runner (workloads are built
// once and shared across drivers).
type Experiments = experiments.Runner

// NewExperiments returns a paper-scale experiment runner.
func NewExperiments(seed int64) *Experiments { return experiments.NewRunner(seed) }

// NewSmallExperiments returns a fast, test-scale experiment runner.
func NewSmallExperiments(seed int64) *Experiments { return experiments.NewSmallRunner(seed) }
