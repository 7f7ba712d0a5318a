package detector

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// burstCampaign generates a feed shaped like sybilbench's: rounds
// hourly rounds in which every normal account sends one friend request
// (40 % accepted at once), with every 50th account a Sybil whose
// 30-request burst is threaded through the chatter, the bursts spread
// evenly over the run. Equal arguments give identical feeds.
func burstCampaign(seed int64, accounts, rounds int) []osn.Event {
	const (
		sybilEvery    = 50
		acceptShare   = 0.4
		burstRequests = 30
	)
	r := rand.New(rand.NewSource(seed))
	target := func(self int) osn.AccountID {
		t := r.Intn(accounts)
		if t == self {
			t = (self + 1) % accounts
		}
		return osn.AccountID(t)
	}
	var chatter []osn.Event
	for round := 0; round < rounds; round++ {
		at := sim.Time(round+1) * sim.TicksPerHour
		for id := 0; id < accounts; id++ {
			if id%sybilEvery == 0 {
				continue
			}
			tgt := target(id)
			chatter = append(chatter, osn.Event{Type: osn.EvFriendRequest, At: at, Actor: osn.AccountID(id), Target: tgt})
			if r.Float64() < acceptShare && tgt%sybilEvery != 0 {
				chatter = append(chatter, osn.Event{Type: osn.EvFriendAccept, At: at + 1, Actor: tgt, Target: osn.AccountID(id)})
			}
		}
	}
	// Sybil j's k-th request goes in front of chatter event
	// j*span + k*stride; stride keeps a burst inside its own span.
	sybils := (accounts + sybilEvery - 1) / sybilEvery
	span := len(chatter) / sybils
	stride := min(16, span/burstRequests)
	events := make([]osn.Event, 0, len(chatter)+sybils*burstRequests)
	for i, ev := range chatter {
		if j, k := i/span, i%span; j < sybils && k%stride == 0 && k/stride < burstRequests {
			id := j * sybilEvery
			events = append(events, osn.Event{
				Type: osn.EvFriendRequest, At: chatter[j*span].At + 2 + sim.Time(k/stride),
				Actor: osn.AccountID(id), Target: target(id),
			})
		}
		events = append(events, ev)
	}
	return events
}

// TestGoldenCheckpoint holds the checkpoint format to bytes written by
// an older build: testdata/checkpoint_v1.json is the Snapshot of a
// fixed feed as serialized at commit 7f3b700, before the detector's
// state became ID-indexed and paged. The current code must produce the
// same bytes from the same feed, and a pipeline restored from the file
// must finish the feed in exactly the state of the one that never
// stopped. The file is immutable: a format change bumps SnapshotVersion
// and adds a new file beside it.
func TestGoldenCheckpoint(t *testing.T) {
	const golden = "testdata/checkpoint_v1.json"
	events := partitionSlice(burstCampaign(7, 200, 4), 1, 2)
	cut := len(events) * 2 / 3
	live := NewPipeline(PaperRule(), nil, WithGraphReconstruction(), WithPartition(1, 2), WithCheckEvery(3))
	feedChunks(live, events[:cut], 64)
	got, err := json.Marshal(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from %s (%d bytes, want %d)", golden, len(got), len(want))
	}

	var snap PipelineSnapshot
	if err := json.Unmarshal(want, &snap); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, a := range snap.Accounts {
		seen += a.Seen
	}
	if len(snap.Flags) == 0 || seen == 0 || snap.Graph == nil || len(snap.Graph.Edges) == 0 {
		t.Fatalf("golden checkpoint is vacuous: %d flags, cadence sum %d", len(snap.Flags), seen)
	}
	restored, resume, err := NewPipelineFromSnapshot(PaperRule(), nil, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if resume != uint64(cut)+1 {
		t.Fatalf("resume sequence %d, want %d", resume, cut+1)
	}
	var final [2][]byte
	for i, p := range []*Pipeline{live, restored} {
		p.Ingest(Batch{Events: events[cut:], LastSeq: uint64(len(events))})
		if final[i], err = json.Marshal(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(final[0], final[1]) {
		t.Fatal("pipeline restored from the golden checkpoint ends the feed in a different state")
	}
	if live.FlaggedCount() <= len(snap.Flags) {
		t.Fatalf("no flag after the cut (%d before, %d at the end): the restored run judged nothing", len(snap.Flags), live.FlaggedCount())
	}
}
