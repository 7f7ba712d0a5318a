// Command realtime runs the deployed multi-producer architecture in
// one process: a stream broker (streamd's role), three producers each
// running the same seeded OSN simulation and publishing their
// hash-partitioned share of the operational log over the publish
// sub-protocol (renrend -publish's role), and a
// detection pipeline consuming the merged feed at batch granularity,
// reconstructing the graph, and flagging Sybils live (detectd's
// role). Producer 0 also feeds a second, in-process pipeline straight
// off its simulation — which generates the full event set; each
// producer only *publishes* its partition — to cross-check the wire
// pipeline's verdicts.
//
// The broker merges the three producer streams through one global
// sequencer, holds the downstream eof until all three have closed
// their epochs, and the run ends with the ack-based delivery audit
// aggregated across producers. Expected output (exact counts vary
// with GOMAXPROCS-dependent interleaving):
//
//	event feed on 127.0.0.1:NNNNN
//	streamed campaign: accounts=3040 (normal=3000 sybil=40) edges=~35000 events=~100000
//	producer p0: epoch=1 events=~33000 | p1: ... | p2: ...
//	flagged over the wire: 39 sybils (of 40), 0 normals (of 3000)
//	serial in-process pipeline flagged 39 for comparison
//	feed audit: sent=99535 delivered=99535 (100.0%) evicted_sessions=0
//
// The audit line is the delivery contract made visible: delivered
// equals sent (every event from every producer was sequenced once and
// acknowledged by the subscriber) and no session was evicted — the
// wire lost nothing even with three concurrent publishers racing the
// pipeline.
package main

import (
	"fmt"
	"sync"

	"sybilwild/internal/agents"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stream"
)

const (
	producers = 3
	seed      = 3
	normals   = 3000
	sybils    = 40
)

func main() {
	srv, err := stream.NewServer("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	fmt.Println("event feed on", srv.Addr())

	rule := detector.Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}

	// --- detector side (cmd/detectd in production): pipeline
	// fed whole wire batches, rebuilding the friendship graph from
	// accepts. SubscribeBatch resumes the session on connection loss,
	// so the pipeline sees every event exactly once.
	pipe := detector.NewPipeline(rule, nil, detector.WithGraphReconstruction())
	var subWG sync.WaitGroup
	subWG.Add(1)
	go func() {
		defer subWG.Done()
		ingest := func(evs []osn.Event) { pipe.Ingest(detector.Batch{Events: evs}) }
		if err := stream.SubscribeBatch(srv.Addr(), ingest, 5); err != nil {
			fmt.Println("subscriber error:", err)
		}
		pipe.Close()
	}()

	// --- producer side (renrend -publish in production): three
	// processes each run the full deterministic simulation and publish
	// only the actors that hash-partition to their index; the broker's
	// sequencer merges them into one totally ordered feed. Producer 0
	// doubles as the reference: its simulation sees every event, so it
	// drives the serial cross-check pipeline too.
	var serial *detector.Pipeline
	var pop0 *agents.Population
	var prodWG sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		prodWG.Add(1)
		go func(pi int) {
			defer prodWG.Done()
			pub, err := stream.NewPublisher(srv.Addr(), fmt.Sprintf("p%d", pi), producers)
			if err != nil {
				panic(err)
			}
			pop := agents.NewPopulation(seed, agents.DefaultParams())
			feed := func(ev osn.Event) {
				if osn.Partition(ev.Actor, producers) != pi {
					return
				}
				if err := pub.Publish(ev); err != nil {
					panic(err)
				}
			}
			if pi == 0 {
				pop0 = pop
				serial = detector.NewPipeline(rule, pop.Net.Graph())
				// The pipeline only consumes the friend-request
				// lifecycle; filtering here skips the feed events at
				// the dispatch layer.
				pop.Net.RegisterObserver(osn.FanOut(feed,
					osn.FilterTypes(serial.Observe,
						osn.EvFriendRequest, osn.EvFriendAccept, osn.EvFriendReject)))
			} else {
				pop.Net.RegisterObserver(feed)
			}
			pop.Bootstrap(normals)
			pop.LaunchSybils(sybils, 100*sim.TicksPerHour)
			pop.RunFor(400 * sim.TicksPerHour)
			if err := pub.Close(); err != nil {
				panic(err)
			}
		}(pi)
	}
	prodWG.Wait()
	<-srv.IngestDone() // all three epochs closed
	srv.Close()        // drain the subscriber to the head, then eof
	subWG.Wait()

	// Score the pipeline's verdicts against ground truth.
	tp, fp := 0, 0
	for _, id := range pipe.FlaggedIDs() {
		if pop0.Net.Account(id).Kind == osn.Sybil {
			tp++
		} else {
			fp++
		}
	}
	st := srv.Stats()
	fmt.Printf("streamed campaign: %s\n", pop0.Stats())
	line := ""
	for _, ps := range st.PerProducer {
		if line != "" {
			line += " | "
		}
		line += fmt.Sprintf("producer %s: epoch=%d events=%d", ps.ID, ps.Epoch, ps.Events)
	}
	fmt.Println(line)
	fmt.Printf("flagged over the wire: %d sybils (of %d), %d normals (of %d)\n",
		tp, len(pop0.Sybils), fp, len(pop0.Normals))
	fmt.Printf("serial in-process pipeline flagged %d for comparison\n", serial.FlaggedCount())
	pct := 0.0
	if st.Broadcast > 0 {
		pct = 100 * float64(st.Delivered) / float64(st.Broadcast)
	}
	fmt.Printf("feed audit: sent=%d delivered=%d (%.1f%%) evicted_sessions=%d\n",
		st.Broadcast, st.Delivered, pct, st.Evicted)
}
