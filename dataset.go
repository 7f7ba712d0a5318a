package sybilwild

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
	"sybilwild/internal/wire"
)

// A dataset on disk is a directory: a spool (internal/spool) holding
// the event log as the broker's own batch frames, sequence 1 first —
// the bootstrap history's friendship events, then the observation
// window — beside one JSON sidecar holding the rest. The log alone
// rebuilds the friendship graph, so no edge list is stored.
const sidecarName = "dataset.json"

// DatasetMeta records how a dataset was produced.
type DatasetMeta struct {
	Seed        int64
	Description string
	Normals     int
	Sybils      int
	DurationH   int64 // observation window, hours
	// Events is the log's length, so that a spool cut short is refused
	// rather than read as a smaller campaign.
	Events int
}

// Dataset is a finished simulation read back from disk: the account
// table, the event log and the ground truth. The sidecar is the
// dataset without its log.
type Dataset struct {
	Meta     DatasetMeta
	Accounts []Account
	Events   []Event `json:"-"`
	// Ground truth, by account ID.
	SybilIDs  []AccountID
	NormalIDs []AccountID
}

// Save writes the campaign as a dataset into directory dir, creating
// it if needed: the log into a spool, then the sidecar, with meta's
// counts filled in. It refuses a directory that already holds a spool.
func (c *Campaign) Save(dir string, meta DatasetMeta) error {
	net := c.Pop.Net
	d := Dataset{Meta: meta, Accounts: net.Accounts(), Events: net.Events(),
		SybilIDs: c.Pop.Sybils, NormalIDs: c.Pop.Normals}
	d.Meta.Normals, d.Meta.Sybils, d.Meta.Events = len(d.NormalIDs), len(d.SybilIDs), len(d.Events)
	raw, err := json.Marshal(d)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	sp, err := spool.Open(dir)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if end := sp.End(); end != 0 {
		sp.Close()
		return fmt.Errorf("dataset: %s already holds a spool (seqs through %d)", dir, end)
	}
	var payload []byte
	for off := 0; off < len(d.Events) && err == nil; off += stream.DefaultMaxBatch {
		evs := d.Events[off:min(off+stream.DefaultMaxBatch, len(d.Events))]
		payload = wire.AppendBatch(payload[:0], uint64(off+1), evs)
		_, err = sp.AppendFrame(uint64(off+1), len(evs), payload)
	}
	if cerr := sp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, sidecarName), raw, 0o644)
	}
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// LoadDataset reads the dataset Campaign.Save wrote into dir.
func LoadDataset(dir string) (*Dataset, error) {
	var d Dataset
	raw, err := os.ReadFile(filepath.Join(dir, sidecarName))
	if err == nil {
		err = json.Unmarshal(raw, &d)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	sp, err := spool.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer sp.Close()
	if end := sp.End(); end != uint64(d.Meta.Events) {
		return nil, fmt.Errorf("dataset: %s: the spool ends at seq %d, the log has %d events", dir, end, d.Meta.Events)
	}
	r, err := sp.ReadFrom(1)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer r.Close()
	d.Events = make([]Event, 0, d.Meta.Events)
	for len(d.Events) < d.Meta.Events {
		_, _, payload, err := r.NextFrame()
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		_, d.Events, _ = wire.ParseBatch(payload, d.Events) // NextFrame checked it
	}
	return &d, nil
}

// Rebuild reconstructs the network: the account table, and the graph
// from the log's friendship and accept events.
func (d *Dataset) Rebuild() *Network {
	return osn.Restore(d.Accounts, d.Events)
}
