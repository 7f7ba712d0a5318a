// Command renrend runs the OSN simulation as a network service: it
// listens on a TCP port and streams every operational-log event to
// connected subscribers over the v3 feed protocol (sequence-numbered,
// acked batches; see docs/ARCHITECTURE.md) — the role Renren's
// production log feed played for the paper's deployed detector.
// Delivery is at least once: a slow subscriber applies backpressure
// to the simulation instead of losing events, and a briefly
// disconnected one resumes from its last delivered sequence.
//
// With -spool-dir the feed also persists to disk: every event is
// appended to segment files (internal/spool), and a subscriber that
// fell past its in-memory replay window — a detector cold-starting
// from a stale checkpoint, or one that was simply gone too long — is
// caught up from the segments instead of being answered with a feed
// gap. A slow subscriber is demoted to disk catch-up rather than
// stalling the simulation. Retention is pruned by -spool-retain but
// never past the lowest subscriber acknowledgement.
//
// The simulation starts once the first subscriber connects (so a
// detector daemon never misses the campaign), then streams the whole
// campaign, drains every subscriber's replay window, and exits with a
// sent-vs-delivered accounting line.
//
// With -publish the process is a producer instead of a server: it
// dials a streamd broker and publishes its share of the simulated
// population over the publish sub-protocol. -producers K and
// -producer-index i split the campaign across K such processes — each
// runs the full deterministic simulation from the shared -seed but
// publishes only the actors that hash-partition to its index, so the
// K processes jointly emit exactly the event set one process would.
// A publish-mode process that is killed and restarted resumes
// exactly-once: the broker reports how many of its events are already
// sequenced and the regenerated deterministic stream skips that
// prefix. -maxrate is interpreted as the target rate of the whole
// producer group: each process paces at maxrate/K so K producers do
// not overdrive the broker at K times the requested rate.
//
// Usage:
//
//	renrend -addr 127.0.0.1:7474 -normals 6000 -sybils 80 -hours 400 \
//	        -spool-dir /var/lib/renrend/spool -spool-retain 1073741824
//
//	# or, as one of three producers feeding a streamd broker:
//	renrend -publish 127.0.0.1:7474 -producers 3 -producer-index 1 \
//	        -normals 6000 -sybils 80 -hours 400
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("renrend: ")
	var (
		addr    = flag.String("addr", "127.0.0.1:7474", "listen address")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		normals = flag.Int("normals", 6000, "background user population")
		sybils  = flag.Int("sybils", 80, "Sybil accounts")
		hours   = flag.Int64("hours", 400, "observation window (hours)")
		wait    = flag.Duration("wait", 30*time.Second, "max wait for a first subscriber")
		maxRate = flag.Int("maxrate", 0, "max events/second streamed (0 = unlimited); feed backpressure already paces slow subscribers, set this only to smooth bursts. In publish mode this is the whole producer group's rate: each process paces at maxrate/producers")
		window  = flag.Int("window", stream.DefaultReplayBuffer, "per-subscriber in-memory replay window in events; with a spool, tiny windows stay safe (overflow falls back to disk)")

		publish    = flag.String("publish", "", "publish into a streamd broker at this address instead of serving subscribers (disables -addr/-wait/-window/-spool-*)")
		producers  = flag.Int("producers", 1, "size of the producer group jointly generating the campaign (publish mode)")
		prodIndex  = flag.Int("producer-index", 0, "this process's partition index in [0, producers) (publish mode)")
		producerID = flag.String("producer-id", "", "producer id registered with the broker (default: p<producer-index>)")

		spoolDir     = flag.String("spool-dir", "", "directory for the disk feed spool (empty: memory-only replay windows)")
		spoolSegment = flag.Int64("spool-segment-bytes", spool.DefaultSegmentBytes, "segment file size before rolling (fsync on roll)")
		spoolRetain  = flag.Int64("spool-retain", 0, "spool retention budget in bytes (0 = keep everything); pruning never passes the lowest subscriber ack")
		spoolAge     = flag.Duration("spool-segment-age", 0, "also roll the active segment after this age (0 = size-only rolling)")
	)
	flag.Parse()

	if *publish != "" {
		runPublisher(*publish, *producerID, *producers, *prodIndex,
			*seed, *normals, *sybils, *hours, *maxRate)
		return
	}

	opts := []stream.ServerOption{stream.WithReplayBuffer(*window)}
	var sp *spool.Spool
	if *spoolDir != "" {
		var err error
		sp, err = spool.Open(*spoolDir,
			spool.WithSegmentBytes(*spoolSegment),
			spool.WithRetainBytes(*spoolRetain),
			spool.WithSegmentAge(*spoolAge))
		if err != nil {
			log.Fatal(err)
		}
		defer sp.Close()
		opts = append(opts, stream.WithSpool(sp))
		if st := sp.Stats(); st.End > 0 {
			fmt.Printf("spool %s: resuming log at seq %d (%d segments, %d bytes retained from seq %d)\n",
				*spoolDir, st.End+1, st.Segments, st.Bytes, st.First)
		}
	}

	srv, err := stream.NewServer(*addr, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("listening on %s; waiting up to %v for a subscriber\n", srv.Addr(), *wait)

	deadline := time.Now().Add(*wait)
	for srv.NumClients() == 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if srv.NumClients() == 0 {
		fmt.Println("no subscriber; streaming anyway")
	}

	pop := agents.NewPopulation(*seed, agents.DefaultParams())
	pop.Net.SetKeepLog(false) // observers only; no need to retain
	sent := 0
	windowStart := time.Now()
	// Coalesce observer events into broker batches: BroadcastBatch
	// sequences, encodes and spools one shared frame per run instead of
	// one per event, which is the broker's single-encode hot path.
	const flushAt = 256
	batch := make([]osn.Event, 0, flushAt)
	flush := func() {
		srv.BroadcastBatch(batch)
		batch = batch[:0]
	}
	pop.Net.RegisterObserver(func(ev osn.Event) {
		batch = append(batch, ev)
		if len(batch) >= flushAt {
			flush()
		}
		if *maxRate <= 0 {
			return
		}
		sent++
		if sent%1024 == 0 {
			// Simple token pacing: never exceed maxRate on average.
			need := time.Duration(sent) * time.Second / time.Duration(*maxRate)
			if elapsed := time.Since(windowStart); elapsed < need {
				time.Sleep(need - elapsed)
			}
		}
	})
	pop.Bootstrap(*normals)
	pop.LaunchSybils(*sybils, (*hours)/4*sim.TicksPerHour)
	pop.RunFor(*hours * sim.TicksPerHour)
	flush() // tail of the feed

	fmt.Println(pop.Stats())
	// Per-session lag (worst first): who is holding the feed back, and
	// whether they are being served from memory or disk catch-up.
	for _, ss := range srv.Stats().PerSession {
		state := "connected"
		if !ss.Connected {
			state = "detached"
		}
		if ss.CatchUp {
			state += ", disk catch-up"
		}
		fmt.Printf("session %s (%s): behind=%d window=%d/%d (%.0f%% full)\n",
			ss.ID, state, ss.Behind, ss.Buffered, ss.Window, 100*ss.Fill)
	}
	fmt.Println("campaign complete; draining subscriber replay windows")
	srv.Close() // blocks until every subscriber drained (or the drain timeout cut it off)
	st := srv.Stats()
	fmt.Printf("sent=%d delivered=%d encodes=%d sessions_evicted=%d\n", st.Broadcast, st.Delivered, st.Encodes, st.Evicted)
	if sp != nil {
		sst := sp.Stats()
		line := fmt.Sprintf("spool: %d segments, %d bytes, seqs %d-%d retained", sst.Segments, sst.Bytes, sst.First, sst.End)
		if st.SpoolErr != "" {
			line += " (DISK TIER FAILED: " + st.SpoolErr + ")"
		}
		fmt.Println(line)
	}
}

// runPublisher is publish mode: run the full deterministic simulation
// and publish this process's actor partition into a streamd broker.
// Exactly-once across kill -9 rides on determinism — the broker
// reports how many of this producer's events are already sequenced,
// and the regenerated stream skips exactly that prefix (at full
// speed: pacing starts at the first freshly published event).
func runPublisher(addr, id string, group, index int, seed int64, normals, sybils int, hours int64, maxRate int) {
	if index < 0 || index >= group {
		log.Fatalf("-producer-index %d out of range [0, %d)", index, group)
	}
	if id == "" {
		id = fmt.Sprintf("p%d", index)
	}
	pub, err := stream.NewPublisher(addr, id, group)
	if err != nil {
		log.Fatal(err)
	}
	skip := pub.SkipEvents()
	fmt.Printf("registered as producer %s (%d of %d), epoch %d\n", id, index, group, pub.Epoch())
	if skip > 0 {
		fmt.Printf("broker already holds %d of our events; regenerating and skipping that prefix\n", skip)
	}
	// -maxrate is the producer group's aggregate budget; this process
	// paces its own share so K producers sum to roughly maxrate.
	rate := 0
	if maxRate > 0 {
		rate = maxRate / group
		if rate < 1 {
			rate = 1
		}
	}

	pop := agents.NewPopulation(seed, agents.DefaultParams())
	pop.Net.SetKeepLog(false) // observers only; no need to retain
	var seen, published uint64
	var paceStart time.Time
	pop.Net.RegisterObserver(func(ev osn.Event) {
		if osn.Partition(ev.Actor, group) != index {
			return
		}
		seen++
		if seen <= skip {
			return // a predecessor process already published this prefix
		}
		if err := pub.Publish(ev); err != nil {
			log.Fatalf("publish: %v", err)
		}
		published++
		if rate > 0 {
			if published == 1 {
				paceStart = time.Now()
			}
			if published%1024 == 0 {
				// Simple token pacing: never exceed rate on average.
				need := time.Duration(published) * time.Second / time.Duration(rate)
				if elapsed := time.Since(paceStart); elapsed < need {
					time.Sleep(need - elapsed)
				}
			}
		}
	})
	pop.Bootstrap(normals)
	pop.LaunchSybils(sybils, hours/4*sim.TicksPerHour)
	pop.RunFor(hours * sim.TicksPerHour)
	if err := pub.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	st := pub.Stats()
	fmt.Println(pop.Stats())
	fmt.Printf("producer %s: published %d events in %d batches (skipped %d already-durable), acked through batch %d, %d batches resent\n",
		id, st.Events, st.Batches, skip, st.Acked, st.Resent)
}
