package detector_test

import (
	"fmt"

	"sybilwild/internal/detector"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/stream"
)

// ExamplePipeline_Ingest ingests an event log in wire-batch
// chunks — the shape detectd receives from stream.Client.RecvBatch —
// through the pipeline. Account 1 bursts 30 invitations in an
// hour with a single accept, the paper's Sybil signature, and is the
// only account flagged.
func ExamplePipeline_Ingest() {
	g := graph.New(64)
	g.AddNodes(64)

	events := make([]osn.Event, 0, 32)
	for i := 0; i < 30; i++ { // one request every 2 ticks: ~30/hour
		events = append(events, osn.Event{
			Type: osn.EvFriendRequest, At: int64(2 * i),
			Actor: 1, Target: osn.AccountID(2 + i),
		})
	}
	events = append(events, osn.Event{Type: osn.EvFriendAccept, At: 61, Actor: 2, Target: 1})

	rule := detector.Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}
	p := detector.NewPipeline(rule, g)
	for i := 0; i < len(events); i += stream.DefaultMaxBatch {
		end := min(i+stream.DefaultMaxBatch, len(events))
		p.Ingest(detector.Batch{Events: events[i:end]})
	}
	p.Close()

	fmt.Println("accounts tracked:", p.Tracked())
	fmt.Println("flagged:", p.FlaggedIDs())
	fmt.Println("total flagged:", p.FlaggedCount())
	// Output:
	// accounts tracked: 31
	// flagged: [1]
	// total flagged: 1
}
