// Checkpoint files and the start-up rule. A worker's state can come
// from two places: its local checkpoint directory (-checkpoint-dir)
// and its partition's handoff offer at the broker. Both are read
// through one interface, and one function, pickSource, chooses between
// them: the freshest valid state wins, a tie goes to the local
// checkpoint (its session can resume), and a state stamped for another
// partition refuses the start instead of being skipped.
//
// File format: one JSON checkpointState per file, named
// checkpoint-<seq>.json with the sequence zero-padded so lexicographic
// order is sequence order. Writes go to a temporary file in the same
// directory, are fsynced, then renamed into place, so a reader never
// observes a torn checkpoint. The store keeps the newest Keep files
// (older ones are pruned after a successful write), so one bad write
// can never destroy the only good checkpoint.

package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"sybilwild/internal/detector"
	"sybilwild/internal/stream"
)

// checkpointVersion identifies the checkpoint file schema; a mismatch
// on load skips the file rather than misreading state.
const checkpointVersion = 1

// DefaultKeep is how many checkpoint generations a worker retains.
const DefaultKeep = 3

// checkpointState is everything a restart needs: the pipeline image and
// the stream session that can replay the events since it was cut.
type checkpointState struct {
	Version  int                        `json:"version"`
	Session  string                     `json:"session"`
	Snapshot *detector.PipelineSnapshot `json:"snapshot"`

	path string // the file it was read from; "" for a broker offer
}

// snapshotSource is one place a worker's starting state can come from:
// a *store or a brokerSource.
type snapshotSource interface {
	// newest returns the freshest valid state the source holds, nil
	// when it holds none.
	newest() (*checkpointState, error)
}

// pickSource applies the start-up rule to the sources, listed in order
// of precedence on a tie. No state anywhere is a cold start (nil).
func pickSource(part, parts int, sources ...snapshotSource) (*checkpointState, error) {
	if parts <= 1 {
		part, parts = 0, 0 // how the pipeline stamps a whole-feed run
	}
	var best *checkpointState
	for _, src := range sources {
		st, err := src.newest()
		if err != nil {
			return nil, err
		}
		if st == nil {
			continue
		}
		if sp := st.Snapshot; sp.Part != part || sp.Parts != parts {
			from := "the broker's snapshot"
			if st.path != "" {
				from = "checkpoint " + st.path
			}
			return nil, fmt.Errorf("cluster: %s is for partition %d/%d, not %d/%d",
				from, sp.Part, sp.Parts, part, parts)
		}
		if best == nil || st.Snapshot.Seq > best.Snapshot.Seq {
			best = st
		}
	}
	return best, nil
}

// brokerSource reads the partition's handoff offer: stream.FetchSnapshot
// bound to the broker and the partition key.
type brokerSource func() (seq uint64, data []byte, err error)

func (fetch brokerSource) newest() (*checkpointState, error) {
	seq, data, err := fetch()
	if errors.Is(err, stream.ErrNoSnapshot) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var snap detector.PipelineSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("cluster: decode broker snapshot: %w", err)
	}
	if snap.Seq != seq {
		return nil, fmt.Errorf("cluster: broker snapshot announced seq %d but is stamped %d", seq, snap.Seq)
	}
	return &checkpointState{Snapshot: &snap}, nil
}

// store manages a directory of checkpoint files. Not safe for
// concurrent use; a worker checkpoints from its ingest goroutine.
type store struct {
	dir  string
	keep int
}

// openStore creates the directory if needed and returns a store
// keeping the newest keep checkpoints (values < 1 mean DefaultKeep).
func openStore(dir string, keep int) (*store, error) {
	if keep < 1 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	return &store{dir: dir, keep: keep}, nil
}

// list returns the store's checkpoint files, newest first.
func (s *store) list() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	var names []string
	for i := len(entries) - 1; i >= 0; i-- { // ReadDir sorts by name; padded names sort by sequence
		name := entries[i].Name()
		if ok, _ := filepath.Match("checkpoint-*.json", name); !ok {
			continue
		}
		if _, perr := strconv.ParseUint(name[len("checkpoint-"):len(name)-len(".json")], 10, 64); perr == nil {
			names = append(names, filepath.Join(s.dir, name))
		}
	}
	return names, err
}

// write persists a snapshot atomically and prunes old generations.
// The file is durable before the rename lands, so once write returns
// the snapshot's sequence may be acked.
func (s *store) write(session string, snap *detector.PipelineSnapshot) error {
	tmp, err := os.CreateTemp(s.dir, "checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("cluster: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	err = json.NewEncoder(tmp).Encode(&checkpointState{Version: checkpointVersion, Session: session, Snapshot: snap})
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(s.dir, fmt.Sprintf("checkpoint-%020d.json", snap.Seq)))
	}
	if err != nil {
		return fmt.Errorf("cluster: checkpoint: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync() // best effort: make the rename durable too
		d.Close()
	}
	names, _ := s.list() // best effort: pruning never fails a write
	for _, old := range names[min(s.keep, len(names)):] {
		os.Remove(old)
	}
	return nil
}

// newest loads the newest readable checkpoint. Unreadable or
// schema-mismatched files are skipped in favour of the next-newest
// generation (the atomic write makes torn files impossible, but a
// store survives manual damage).
func (s *store) newest() (*checkpointState, error) {
	names, err := s.list()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		st := checkpointState{path: name}
		if json.Unmarshal(data, &st) != nil || st.Version != checkpointVersion || st.Snapshot == nil {
			continue
		}
		return &st, nil
	}
	return nil, nil
}
