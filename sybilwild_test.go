package sybilwild

import (
	"path/filepath"
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way the quickstart
// example does: simulate, extract, fit, evaluate, then save a dataset
// directory and reload it.
func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("facade campaign in -short mode")
	}
	cfg := DefaultCampaign(3)
	cfg.Normals = 2500
	cfg.Sybils = 35
	c := RunCampaign(cfg)

	if c.Network().NumAccounts() != cfg.Normals+cfg.Sybils {
		t.Fatalf("accounts = %d", c.Network().NumAccounts())
	}
	ds := c.GroundTruth()
	if len(ds.Vectors) != cfg.Normals+cfg.Sybils {
		t.Fatalf("dataset size = %d", len(ds.Vectors))
	}

	rule := FitRule(ds)
	conf := rule.Evaluate(ds)
	if conf.Accuracy() < 0.97 {
		t.Errorf("fitted rule accuracy = %.3f", conf.Accuracy())
	}
	if conf.TPR() < 0.7 {
		t.Errorf("fitted rule TPR = %.3f", conf.TPR())
	}

	acc := CrossValidateSVM(ds, 5, DefaultSVMConfig())
	if acc < 0.97 {
		t.Errorf("SVM CV accuracy = %.3f", acc)
	}

	// Save a dataset directory and reload it: the log alone rebuilds
	// the graph, edge for edge in creation order.
	dir := filepath.Join(t.TempDir(), "campaign")
	if err := c.Save(dir, DatasetMeta{Seed: cfg.Seed, Description: "facade test", DurationH: cfg.Hours}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	re := loaded.Rebuild()
	if !re.Graph().Equal(c.Network().Graph()) {
		t.Fatalf("round trip rebuilt %d edges, not the campaign's %d in order", re.Graph().NumEdges(), c.Network().Graph().NumEdges())
	}
	// Features identical after round trip.
	orig := ExtractFeatures(c.Network(), c.Pop.Sybils[:3])
	got := ExtractFeatures(re, loaded.SybilIDs[:3])
	for i := range orig {
		if orig[i] != got[i] {
			t.Fatalf("feature drift after reload: %+v vs %+v", orig[i], got[i])
		}
	}
}

func TestFacadeExperimentDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments in -short mode")
	}
	r := NewSmallExperiments(1)
	rep, err := r.Run("table3")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table3" {
		t.Fatalf("report = %+v", rep)
	}
	ids := ExperimentIDs()
	if len(ids) != 15 {
		t.Fatalf("experiment ids = %v", ids)
	}
	if _, err := RunExperiment("bogus", 1); err == nil {
		t.Fatal("bogus id did not error")
	}
}

func TestPaperRuleConstants(t *testing.T) {
	r := PaperRule()
	if r.OutAcceptMax != 0.5 || r.FreqMin != 20 || r.CCMax != 0.01 {
		t.Fatalf("paper constants changed: %+v", r)
	}
}

func TestInvalidCampaignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid config")
		}
	}()
	RunCampaign(CampaignConfig{})
}
