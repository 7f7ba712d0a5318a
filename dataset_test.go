package sybilwild

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sybilwild/internal/agents"
	"sybilwild/internal/osn"
)

// sampleCampaign is a three-account network — a friendship from before
// the requests, one accepted and one rejected request, and a ban — as
// a campaign, and the dataset it saves.
func sampleCampaign(t *testing.T) (*Campaign, *Dataset) {
	t.Helper()
	net := osn.NewNetwork()
	s := net.CreateAccount(osn.Female, osn.Sybil, 0)
	a := net.CreateAccount(osn.Male, osn.Normal, 0)
	b := net.CreateAccount(osn.Female, osn.Normal, 0)
	net.AddFriendship(a, b, 5)
	net.SendFriendRequest(s, a, 10)
	net.RespondFriendRequest(a, s, true, 20)
	net.SendFriendRequest(s, b, 30)
	net.RespondFriendRequest(b, s, false, 40)
	net.Ban(s, 50)
	c := &Campaign{Pop: &agents.Population{Net: net, Sybils: []AccountID{s}, Normals: []AccountID{a, b}}}
	return c, &Dataset{
		Meta:      DatasetMeta{Seed: 42, Description: "test", Normals: 2, Sybils: 1, DurationH: 400, Events: 6},
		Accounts:  net.Accounts(),
		Events:    net.Events(),
		SybilIDs:  c.Pop.Sybils,
		NormalIDs: c.Pop.Normals,
	}
}

// save saves c into a fresh directory and returns it.
func save(t *testing.T, c *Campaign) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	if err := c.Save(dir, DatasetMeta{Seed: 42, Description: "test", DurationH: 400}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDatasetRoundTrip: a saved dataset loads back whole.
func TestDatasetRoundTrip(t *testing.T) {
	c, ds := sampleCampaign(t)
	got, err := LoadDataset(save(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != ds.Meta {
		t.Fatalf("meta mismatch: %+v vs %+v", got.Meta, ds.Meta)
	}
	if !slices.Equal(got.Accounts, ds.Accounts) || !slices.Equal(got.Events, ds.Events) ||
		!slices.Equal(got.SybilIDs, ds.SybilIDs) || !slices.Equal(got.NormalIDs, ds.NormalIDs) {
		t.Fatalf("round trip changed the dataset:\n got %+v\nwant %+v", got, ds)
	}
	if got.Events[0].Type != osn.EvFriendship {
		t.Fatalf("the log opens with %v, want the friendship", got.Events[0].Type)
	}
}

// TestDatasetSaveLoadFile: the meta given to Save, not the campaign's
// defaults, is what the saved directory loads back with.
func TestDatasetSaveLoadFile(t *testing.T) {
	c, _ := sampleCampaign(t)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := c.Save(dir, DatasetMeta{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Seed != 7 {
		t.Fatalf("seed = %d", got.Meta.Seed)
	}
}

// TestDatasetRebuildPreservesAnalysis: the network rebuilt from a
// loaded dataset yields the same features, bans and graph.
func TestDatasetRebuildPreservesAnalysis(t *testing.T) {
	c, ds := sampleCampaign(t)
	net := c.Network()
	loaded, err := LoadDataset(save(t, c))
	if err != nil {
		t.Fatal(err)
	}
	re := loaded.Rebuild()
	s := ds.SybilIDs[0]
	if orig, rebuilt := ExtractFeatures(net, []AccountID{s})[0], ExtractFeatures(re, []AccountID{s})[0]; orig != rebuilt {
		t.Fatalf("features diverge after round trip:\n%+v\n%+v", orig, rebuilt)
	}
	if !re.Account(s).Banned || re.Account(s).BannedAt != 50 {
		t.Fatal("ban state lost")
	}
	if !re.Graph().Equal(net.Graph()) {
		t.Fatalf("rebuilt %d edges, want the network's %d in order", re.Graph().NumEdges(), net.Graph().NumEdges())
	}
}

// TestSaveDatasetRefusesASpool: Save never appends to a spool already
// in its directory.
func TestSaveDatasetRefusesASpool(t *testing.T) {
	c, ds := sampleCampaign(t)
	dir := save(t, c)
	if err := c.Save(dir, DatasetMeta{}); err == nil || !strings.Contains(err.Error(), "already holds a spool") {
		t.Fatalf("second Save into %s: %v", dir, err)
	}
	if got, err := LoadDataset(dir); err != nil || len(got.Events) != len(ds.Events) {
		t.Fatalf("the refused Save changed the dataset: %v", err)
	}
}

func TestLoadDatasetMissing(t *testing.T) {
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for a missing directory")
	}
}

// TestLoadDatasetGarbage: a sidecar that does not parse, or one whose
// log is longer than the spool, is an error.
func TestLoadDatasetGarbage(t *testing.T) {
	c, _ := sampleCampaign(t)
	dir := save(t, c)
	side := filepath.Join(dir, sidecarName)
	raw, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(dir); err == nil {
		t.Fatal("expected error for a garbage sidecar")
	}
	long := strings.Replace(string(raw), `"Events":6`, `"Events":7`, 1)
	if long == string(raw) {
		t.Fatalf("sidecar %s names no 6-event log", raw)
	}
	if err := os.WriteFile(side, []byte(long), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(dir); err == nil || !strings.Contains(err.Error(), "the log has 7 events") {
		t.Fatalf("a spool short of the sidecar's log loaded: %v", err)
	}
}

func TestSaveDatasetToBadPath(t *testing.T) {
	c, _ := sampleCampaign(t)
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(filepath.Join(file, "ds"), DatasetMeta{}); err == nil {
		t.Fatal("expected error for a path under a file")
	}
}
