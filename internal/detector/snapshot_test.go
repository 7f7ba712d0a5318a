package detector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"sybilwild/internal/features"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// graphSnapshotEmpty is a valid zero-account reconstructed graph,
// used to reach restore's state validation in isolation.
var graphSnapshotEmpty = graph.Snapshot{}

// feedChunks feeds events through sequenced Ingest batches in fixed-size
// chunks, stamping a synthetic 1-based stream sequence, and returns
// the last sequence applied.
func feedChunks(p *Pipeline, events []osn.Event, chunk int) uint64 {
	seq := uint64(0)
	for i := 0; i < len(events); i += chunk {
		end := i + chunk
		if end > len(events) {
			end = len(events)
		}
		seq += uint64(end - i)
		p.Ingest(Batch{Events: events[i:end], LastSeq: seq})
	}
	return seq
}

func requireSameFlags(t *testing.T, label string, got, want []osn.AccountID) {
	t.Helper()
	got, want = sortedIDs(got), sortedIDs(want)
	if len(want) == 0 {
		t.Fatalf("%s: reference flagged nothing; test is vacuous", label)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: flag sets diverge:\n got %v\nwant %v", label, got, want)
	}
}

// TestSnapshotRestoreContinuesExactly is the tentpole's core property:
// cut a snapshot mid-stream, restore it into a fresh pipeline, feed
// the remainder, and the flag set must equal both an uninterrupted
// pipeline run and the serial Monitor replay. Static-graph mode, so
// the Monitor comparison is exact.
func TestSnapshotRestoreContinuesExactly(t *testing.T) {
	pop := campaignLog(t, 61)
	events := pop.Net.Events()
	g := pop.Net.Graph()
	rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())

	m := NewMonitor(rule, g, nil)
	m.CheckEvery = 3
	for _, ev := range events {
		m.Observe(ev)
	}

	full := NewPipeline(rule, g, WithCheckEvery(3))
	feedChunks(full, events, 97)
	full.Close()
	requireSameFlags(t, "uninterrupted vs monitor", full.FlaggedIDs(), m.FlaggedIDs())

	for _, cutFrac := range []int{4, 2} {
		cut := len(events) / cutFrac
		p1 := NewPipeline(rule, g, WithCheckEvery(3))
		seq := feedChunks(p1, events[:cut], 97)
		snap := p1.Snapshot()
		p1.Close() // the "crash": p1's in-memory state is discarded

		if snap.Seq != seq {
			t.Fatalf("cut 1/%d: snapshot stamped seq %d, applied %d", cutFrac, snap.Seq, seq)
		}
		p2, resume, err := NewPipelineFromSnapshot(rule, g, snap)
		if err != nil {
			t.Fatal(err)
		}
		if resume != seq+1 {
			t.Fatalf("cut 1/%d: resume sequence %d, want %d", cutFrac, resume, seq+1)
		}
		for i := cut; i < len(events); i += 97 {
			end := i + 97
			if end > len(events) {
				end = len(events)
			}
			p2.Ingest(Batch{Events: events[i:end]})
		}
		p2.Close()
		requireSameFlags(t, fmt.Sprintf("restored at 1/%d vs monitor", cutFrac), p2.FlaggedIDs(), m.FlaggedIDs())
		if p2.Tracked() != full.Tracked() {
			t.Fatalf("cut 1/%d: restored run tracks %d accounts, uninterrupted %d", cutFrac, p2.Tracked(), full.Tracked())
		}
	}
}

// TestSnapshotRestoreGraphReconstruction: in reconstruction mode the
// snapshot carries the rebuilt graph; the restored pipeline must end
// the stream with a graph identical to the uninterrupted run's and
// the same flags.
func TestSnapshotRestoreGraphReconstruction(t *testing.T) {
	pop := campaignLog(t, 73)
	events := pop.Net.Events()
	rule := Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}

	full := NewPipeline(rule, nil, WithGraphReconstruction())
	feedChunks(full, events, 64)
	full.Close()

	cut := len(events) / 3
	p1 := NewPipeline(rule, nil, WithGraphReconstruction())
	feedChunks(p1, events[:cut], 64)
	snap := p1.Snapshot()
	p1.Close()
	if snap.Graph == nil {
		t.Fatal("reconstruction-mode snapshot has no graph")
	}

	p2, _, err := NewPipelineFromSnapshot(rule, nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	p2.Ingest(Batch{Events: events[cut:]})
	p2.Close()

	if !p2.Graph().Equal(full.Graph()) {
		t.Fatal("restored run's reconstructed graph diverged from uninterrupted run's")
	}
	requireSameFlags(t, "restored reconstruction run", p2.FlaggedIDs(), full.FlaggedIDs())
}

// TestSnapshotRoundTripThroughJSON: a snapshot must survive its real
// serialization format byte-for-byte — restore from decoded JSON, cut
// a second snapshot immediately, and the two encodings must be
// identical (deterministic ordering included).
func TestSnapshotRoundTripThroughJSON(t *testing.T) {
	pop := campaignLog(t, 89)
	p := NewPipeline(Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}, nil,
		WithGraphReconstruction(), WithCheckEvery(2))
	feedChunks(p, pop.Net.Events(), 128)
	snap := p.Snapshot()
	p.Close()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded PipelineSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	p2, _, err := NewPipelineFromSnapshot(Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}, nil, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	snap2 := p2.Snapshot()
	p2.Close()
	data2, err := json.Marshal(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("snapshot → restore → snapshot is not byte-identical")
	}
}

// TestRestoreLegacyShardsKey: a checkpoint written before in-process
// sharding was removed carries a "shards" key. It must still restore
// (the key is ignored), continue to the uninterrupted run's flag set,
// and not be written back.
func TestRestoreLegacyShardsKey(t *testing.T) {
	pop := campaignLog(t, 97)
	events := pop.Net.Events()
	g := pop.Net.Graph()
	rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())

	full := NewPipeline(rule, g)
	feedChunks(full, events, 100)
	full.Close()

	cut := len(events) / 2
	p1 := NewPipeline(rule, g)
	feedChunks(p1, events[:cut], 100)
	data, err := json.Marshal(p1.Snapshot())
	p1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"shards"`)) {
		t.Fatal("snapshot still writes a shards key")
	}
	legacy := bytes.Replace(data, []byte(`"seq":`), []byte(`"shards":4,"seq":`), 1)
	if bytes.Equal(legacy, data) {
		t.Fatal("failed to plant the legacy shards key")
	}

	var snap PipelineSnapshot
	if err := json.Unmarshal(legacy, &snap); err != nil {
		t.Fatal(err)
	}
	p2, _, err := NewPipelineFromSnapshot(rule, g, &snap)
	if err != nil {
		t.Fatalf("restore of a checkpoint carrying \"shards\": 4: %v", err)
	}
	p2.Ingest(Batch{Events: events[cut:]})
	p2.Close()
	requireSameFlags(t, "restore from legacy checkpoint", p2.FlaggedIDs(), full.FlaggedIDs())
}

// TestSnapshotFlushesFlagHooks: by the time Snapshot returns, every
// verdict it contains has been recorded and had its hook fired — the
// ordering that lets a checkpointer persist and acknowledge the
// snapshot without risking a hook delivery lost to a crash (restore
// never re-fires hooks).
func TestSnapshotFlushesFlagHooks(t *testing.T) {
	fired := 0
	p := NewPipeline(flagAll{}, nil, WithGraphReconstruction(),
		WithFlagHook(func(Flag) { fired++ }))
	for i := 0; i < 30; i++ {
		ingestEach(p, osn.Event{Type: osn.EvFriendRequest, At: sim.Time(i), Actor: osn.AccountID(i), Target: osn.AccountID(100 + i)})
	}
	snap := p.Snapshot()
	if len(snap.Flags) != 30 {
		t.Fatalf("snapshot holds %d flags, want 30", len(snap.Flags))
	}
	if fired != 30 {
		t.Fatalf("snapshot returned with only %d of 30 hooks fired", fired)
	}
	if p.FlaggedCount() != 30 {
		t.Fatalf("snapshot returned with only %d of 30 flags recorded", p.FlaggedCount())
	}
	p.Close()
}

// TestRestoreRejectsBadSnapshots: version skew, missing graph, and
// duplicate state must fail loudly.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	if _, _, err := NewPipelineFromSnapshot(flagAll{}, nil, &PipelineSnapshot{Version: 99}); err == nil {
		t.Fatal("version skew accepted")
	}
	if _, _, err := NewPipelineFromSnapshot(flagAll{}, nil,
		&PipelineSnapshot{Version: SnapshotVersion}); err == nil {
		t.Fatal("snapshot without graph accepted despite nil static graph")
	}
	dup := &PipelineSnapshot{
		Version: SnapshotVersion,
		Accounts: []AccountSnapshot{
			{State: features.AccountState{ID: 5, OutSent: 1}},
			{State: features.AccountState{ID: 5, OutSent: 2}},
		},
		Graph: &graphSnapshotEmpty,
	}
	if _, _, err := NewPipelineFromSnapshot(flagAll{}, nil, dup); err == nil {
		t.Fatal("duplicate account state accepted")
	}
}
