// Command streamd is the feed broker, the one process that runs the
// stream server: it admits any number of wire producers (renrend) on
// one side and feed subscribers (detectd) on the other. Producer
// batches are merged by a single global sequencer into one totally
// ordered feed — the topology the paper's measurement ran against,
// where Renren's behavioral logs arrived from many frontend sources at
// once. Subscribers are admitted before any producer registers, so
// starting broker, detectors and producers in that order loses nothing.
//
// Producers speak the publish sub-protocol: each registers with a
// producer id and the size of its producer group, publishes batches
// numbered by a per-producer sequence (so reconnect resends
// deduplicate), and closes its epoch with peof. The broker holds the
// downstream eof until every producer in the group has closed, then
// drains each subscriber to the head and exits with the
// sent-vs-delivered audit aggregated across producers.
//
// With -spool-dir the merged feed also persists to segment files, so
// a subscriber may backfill the entire campaign from sequence 1
// (detectd -from-start) or restart from a stale snapshot far
// past the in-memory tail — regardless of which producer each
// event came from.
//
// Subscribers may also join partitioned (detectd -partition i/K): the
// broker filters each such session's feed down to its partition's
// slice. It keeps one detector snapshot per partition (the whole feed
// is key 0/1) in a handoff rendezvous, so a replacement worker adopts
// its predecessor's state over the wire (see docs/ARCHITECTURE.md,
// "Partitioned cluster"). With -spool-dir the snapshots are written
// beside the spool and survive a broker restart. Held snapshots are
// reported in the end-of-feed audit.
//
// With -relay the broker becomes an interior node of a relay tree
// instead of a producer-facing root: it subscribes to the upstream
// broker as a resumable session and adopts its frames verbatim —
// upstream global sequences preserved, canonical bytes spooled and
// fanned out with zero re-encodes — while serving downstream
// subscribers (plain, partitioned, snapshot rendezvous) exactly like
// a root. A relay prints a per-hop audit line at each stats interval
// and exits when the upstream feed ends, after draining its own
// subscribers (eof propagates down the tree). Producers cannot
// publish to a relay: sequence adoption and local sequencing don't
// mix.
//
// SIGINT or SIGTERM stops the broker, prints the audit, flushes, syncs
// and closes the spool, and exits 0; a second signal exits at once. The
// root's feed ends there: it drains every subscriber to the head and
// sends it eof, and tells a waiting spare that the feed closed. A relay
// hop's feed goes on at the root, so the hop severs every connection
// as a crash would, and its subscribers redial until a hop restarted
// on the same spool resumes them.
//
// Usage:
//
//	streamd -addr 127.0.0.1:7474 -spool-dir /var/lib/streamd/spool &
//	streamd -addr 127.0.0.1:7475 -relay 127.0.0.1:7474 -spool-dir /var/lib/streamd/edge &
//	detectd -addr 127.0.0.1:7475 &
//	renrend -addr 127.0.0.1:7474 -producers 3 -producer-index 0 &
//	renrend -addr 127.0.0.1:7474 -producers 3 -producer-index 1 &
//	renrend -addr 127.0.0.1:7474 -producers 3 -producer-index 2 &
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streamd: ")
	var (
		addr   = flag.String("addr", "127.0.0.1:7474", "listen address (producers and subscribers)")
		relay  = flag.String("relay", "", "upstream broker address: run as an interior relay hop adopting that feed instead of admitting producers")
		wait   = flag.Duration("wait", 5*time.Minute, "max wait for the first producer to register")
		linger = flag.Duration("linger", 0, "keep serving subscribers this long after the last producer closes, so late consumers can still backfill the spooled campaign (detectd -from-start) before the broker drains and exits")
		window = flag.Int("window", stream.DefaultReplayBuffer, "in-memory tail of the feed log in events, shared by every subscriber (partitioned ones count feed events too); with a spool, tiny tails stay safe (a subscriber that falls out of the tail reads the spool); without one, the welcome reports it and a -handoff detectd offers every min(W/2, 2(W-256)/3) events")

		spoolDir     = flag.String("spool-dir", "", "directory for the disk feed spool (empty: memory-only feed log)")
		spoolSegment = flag.Int64("spool-segment-bytes", spool.DefaultSegmentBytes, "segment file size before rolling (fsync on roll)")
		spoolRetain  = flag.Int64("spool-retain", 0, "spool retention budget in bytes (0 = keep everything); pruning never passes the lowest subscriber ack")
		spoolAge     = flag.Duration("spool-segment-age", 0, "also roll the active segment after this age (0 = size-only rolling)")
		statsEvery   = flag.Duration("stats-every", 10*time.Second, "interval between ingest progress lines (0 = silent until completion)")
	)
	flag.Parse()

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
		opts = append(opts, stream.WithSpool(sp))
		if st := sp.Stats(); st.End > 0 {
			fmt.Printf("spool %s: resuming log at seq %d (%d segments, %d bytes retained from seq %d)\n",
				*spoolDir, st.End+1, st.Segments, st.Bytes, st.First)
		}
	}

	stop := onSignal()
	if *relay != "" {
		runRelay(*addr, *relay, opts, sp, *statsEvery, stop)
		return
	}

	srv, err := stream.NewServer(*addr, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("broker on %s; waiting up to %v for a producer\n", srv.Addr(), *wait)
	if serve(srv, stop, *wait, *linger, *statsEvery) {
		fmt.Println("all producer epochs closed; draining subscriber replay windows")
	}
	st := srv.Stats()
	printProducers(st)
	for _, ss := range st.PerSession {
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
	for _, sn := range st.Snapshots {
		fmt.Printf("snapshot %d/%d: seq=%d bytes=%d held for handoff\n",
			sn.Part, sn.Parts, sn.Seq, len(sn.Data))
	}
	for _, rb := range st.Rebalances {
		state := "prepared"
		if rb.Committed {
			state = "committed"
		}
		fmt.Printf("rebalance %d -> %d: barrier=%d %s\n", rb.From, rb.To, rb.Barrier, state)
	}
	srv.Close() // blocks until every subscriber drained (or the drain timeout cut it off)
	st = srv.Stats()
	fmt.Printf("sent=%d delivered=%d encodes=%d sessions_evicted=%d\n", st.Broadcast, st.Delivered, st.Encodes, st.Evicted)
	closeSpool(sp, st.SpoolErr)
}

// onSignal returns a channel closed at the first SIGINT or SIGTERM; a
// second one exits at once.
func onSignal() <-chan struct{} {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		fmt.Printf("signal %v: stopping\n", <-sigc)
		close(stop)
		<-sigc
		log.Fatal("second signal: exiting without draining")
	}()
	return stop
}

// serve runs the root broker until its feed is complete — every
// producer of the group that registered within wait closed its epoch,
// and linger passed — narrating ingest progress, and reports whether
// it was. A signal (stop) ends it early.
func serve(srv *stream.Server, stop <-chan struct{}, wait, linger, statsEvery time.Duration) bool {
	deadline, done := time.After(wait), srv.IngestDone()
	var lingered <-chan time.Time
	tick := time.NewTicker(statsInterval(statsEvery))
	defer tick.Stop()
	for {
		select {
		case <-deadline:
			if len(srv.Stats().PerProducer) == 0 {
				log.Fatal("no producer registered; exiting")
			}
		case <-done:
			if linger > 0 {
				fmt.Printf("all producer epochs closed; serving subscribers for another %v\n", linger)
			}
			done, lingered = nil, time.After(linger)
		case <-lingered:
			return true
		case <-stop:
			return false
		case <-tick.C:
			if statsEvery > 0 {
				printProgress(srv)
			}
		}
	}
}

// runRelay is the -relay mode: an interior hop adopting the upstream
// feed, narrated with per-hop audit lines until eof propagates through
// or a signal (stop) severs the hop.
func runRelay(addr, upstream string, opts []stream.ServerOption, sp *spool.Spool, statsEvery time.Duration, stop <-chan struct{}) {
	rly, err := stream.NewRelay(addr, upstream, stream.WithRelayServer(opts...))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relay on %s adopting feed from %s\n", rly.Addr(), upstream)

	done := make(chan error, 1)
	go func() { done <- rly.Wait() }()
	tick := time.NewTicker(statsInterval(statsEvery))
	defer tick.Stop()
	var ferr error
	signaled := false
	for running := true; running; {
		select {
		case ferr = <-done:
			running = false
		case <-stop:
			running, signaled = false, true
		case <-tick.C:
			if statsEvery > 0 {
				printHop(rly)
			}
		}
	}
	if signaled {
		rly.Abort() // no eof: the feed goes on at the root
	} else {
		rly.Close() // idempotent after Wait: makes sure the downstream drain ran
	}
	printHop(rly)
	st := rly.Server().Stats()
	fmt.Printf("adopted=%d delivered=%d encodes=%d sessions_evicted=%d\n",
		st.Adopted, st.Delivered, st.Encodes, st.Evicted)
	closeSpool(sp, st.SpoolErr)
	switch {
	case ferr != nil:
		log.Fatalf("relay feed ended abnormally: %v", ferr)
	case signaled:
		fmt.Println("relay hop stopped on a signal; every connection severed, subscribers redial")
	default:
		fmt.Println("upstream feed complete; eof propagated to every subscriber")
	}
}

// printHop is the per-hop audit line: where this broker sits in the
// tree and how much feed has crossed the hop.
func printHop(rly *stream.Relay) {
	rs, st := rly.Stats(), rly.Server().Stats()
	fmt.Printf("hop=%d seq=%d frames=%d events=%d reconnects=%d subscribers=%d encodes=%d\n",
		rs.Hop, rs.Seq, rs.Frames, rs.Events, rs.Reconnects, st.Sessions, st.Encodes)
}

// closeSpool flushes, syncs and closes a spooled broker's spool, and
// prints its closing disk-tier audit line.
func closeSpool(sp *spool.Spool, spoolErr string) {
	if sp == nil {
		return
	}
	st := sp.Stats()
	if err := sp.Close(); err != nil && spoolErr == "" {
		spoolErr = err.Error()
	}
	line := fmt.Sprintf("spool: %d segments, %d bytes, seqs %d-%d retained", st.Segments, st.Bytes, st.First, st.End)
	if spoolErr != "" {
		line += " (DISK TIER FAILED: " + spoolErr + ")"
	}
	fmt.Println(line)
}

func statsInterval(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Hour
	}
	return d
}

// printProgress is the periodic one-liner: global sequence plus each
// producer's contribution.
func printProgress(srv *stream.Server) {
	st := srv.Stats()
	line := fmt.Sprintf("seq=%d subscribers=%d:", st.Broadcast, st.Sessions)
	for _, ps := range st.PerProducer {
		state := ""
		if ps.EOF {
			state = " eof"
		} else if !ps.Connected {
			state = " detached"
		}
		line += fmt.Sprintf(" %s=%d%s", ps.ID, ps.Events, state)
	}
	fmt.Println(line)
}

// printProducers is the end-of-feed per-producer audit, aggregated
// across epochs (a restarted producer's counts accumulate).
func printProducers(st stream.ServerStats) {
	var events, drops uint64
	for _, ps := range st.PerProducer {
		fmt.Printf("producer %s: epoch=%d batches=%d events=%d dedupe_drops=%d\n",
			ps.ID, ps.Epoch, ps.Batches, ps.Events, ps.DedupeDrops)
		events += ps.Events
		drops += ps.DedupeDrops
	}
	fmt.Printf("ingest: %d events from %d producers (%d replayed batches deduped)\n",
		events, len(st.PerProducer), drops)
}
