// Command detectd is the real-time Sybil detector daemon: it
// subscribes to a renrend event feed, reconstructs the friendship
// graph from accept events, tracks the paper's behavioural features
// incrementally, and reports accounts crossing the detection
// thresholds the moment they do.
//
// Detection runs on a synchronous pipeline: each sequenced wire batch
// of the v2 feed protocol enters through one Ingest call, which applies
// it event by event on the consumer loop's goroutine, so a verdict
// depends only on the feed up to its triggering request. To keep up
// with a production-scale feed, run K daemons with -partition i/K —
// one process may host several. The subscription resumes from the
// last applied sequence if the connection drops, so a network blip
// costs no events (see docs/ARCHITECTURE.md for the delivery
// contract).
//
// With -checkpoint-dir the daemon is durable: every -checkpoint-every
// it runs a consistent Pipeline.Snapshot, writes it as an atomic
// versioned checkpoint file, and only then acknowledges the feed
// through the checkpointed sequence — so the server retains exactly
// the events a crash would need replayed. On start the newest
// checkpoint is restored and the stream resumed from the sequence it
// covers, making even kill -9 recovery exactly-once: the flag set
// matches an uninterrupted run. When the feed spools to disk (renrend
// -spool-dir) the resume succeeds from any retained sequence — a cold
// start from an arbitrarily stale checkpoint replays from segment
// files, far past the feed's in-memory replay window. SIGINT/SIGTERM
// write a final checkpoint and close the pipeline cleanly. With
// -from-start a brand-new daemon (no checkpoint) instead backfills
// the feed's entire spooled history from sequence 1 before flipping
// live — useful against a streamd broker whose campaign is already
// streaming or complete.
//
// With -partition i/K the daemon joins a detection cluster: the
// broker filters its subscription down to partition i of K (owned
// actors plus the cross-partition support events their features need)
// and the pipeline flags only accounts it owns, so K such daemons
// jointly produce exactly the flag set one unpartitioned daemon would
// (see docs/ARCHITECTURE.md, "Partitioned cluster"). Adding -handoff
// makes the partition migratable over the wire: the daemon offers its
// snapshot to the broker at every checkpoint interval and on clean
// shutdown, and a fresh daemon with no local checkpoint adopts the
// broker's freshest offer — resuming from the snapshot's stamped
// sequence instead of replaying the partition's history. A local
// checkpoint, when present, takes precedence over a broker offer; its
// stamped partition must match -partition or the daemon refuses to
// start.
//
// Two cluster-operations modes ride on the same binary. With
// -rebalance K/K' the daemon runs as a one-shot coordinator instead
// of a detector: it fences the running K-way group at a barrier,
// collects the old workers' snapshots exactly at the cut, re-keys them
// into K' partition snapshots, offers the new set, and commits — the
// old daemons retire cleanly ("rebalanced ... retiring") and K' fresh
// daemons started with -partition i/K' -handoff adopt the state and
// resume from barrier+1, with no event judged twice and no feed pause
// (see docs/ARCHITECTURE.md, "Live rebalance"). With -standby the
// daemon parks as a warm standby for its -partition: it watches the
// broker and, when the partition's worker dies, claims the key (of N
// standbys exactly one wins), adopts the freshest broker snapshot, and
// promotes itself — unattended failover with zero replay.
//
// -addr accepts any broker in a relay tree (streamd -relay): edge
// brokers serve the identical feed — same global sequences, same
// frames byte-for-byte — plus partitioned subscriptions and the
// snapshot rendezvous, so large clusters spread their workers across
// edges instead of crowding the root (see docs/ARCHITECTURE.md,
// "Relay tier").
//
// Usage:
//
//	detectd -addr 127.0.0.1:7474 \
//	        -checkpoint-dir /var/lib/detectd -checkpoint-every 10s
//	detectd -addr 127.0.0.1:7474 -partition 2/4 -handoff
//	detectd -addr 127.0.0.1:7474 -rebalance 4/2
//	detectd -addr 127.0.0.1:7474 -partition 1/2 -handoff -standby
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sybilwild/internal/checkpoint"
	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/stream"
)

// daemon is the mutable run state shared between the ingest loop and
// the signal handler.
type daemon struct {
	store *checkpoint.Store // nil: checkpointing disabled
	p     *detector.Pipeline

	addr        string // broker address (snapshot offers dial it separately)
	part, parts int    // cluster partition (parts 0: whole feed)
	handoff     bool   // offer snapshots to the broker for handoff

	session   string // stream session id ("" until first dial)
	sessionID string // pre-claimed session id to dial with (standby promotion)
	resume    uint64 // sequence to resume from (0: fresh subscription)
	written   uint64 // sequence covered by the newest durable checkpoint

	mu      sync.Mutex
	current *stream.Client // connection to kick on shutdown
	stop    atomic.Bool

	events, batches, checkpoints, offers int
}

// parsePartition decodes an "i/K" cluster coordinate; "" means an
// unpartitioned whole-feed subscription.
func parsePartition(s string) (part, parts int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if n, err := fmt.Sscanf(s, "%d/%d", &part, &parts); n != 2 || err != nil {
		return 0, 0, fmt.Errorf("-partition %q: want i/K, e.g. 0/4", s)
	}
	if parts < 1 || part < 0 || part >= parts {
		return 0, 0, fmt.Errorf("-partition %q: partition index out of range", s)
	}
	return part, parts, nil
}

// parseRebalanceSpec decodes a "K/K'" resize spec for -rebalance.
func parseRebalanceSpec(s string) (from, to int, err error) {
	if n, err := fmt.Sscanf(s, "%d/%d", &from, &to); n != 2 || err != nil {
		return 0, 0, fmt.Errorf("-rebalance %q: want K/K', e.g. 3/5", s)
	}
	if from < 2 || to < 1 || from == to {
		return 0, 0, fmt.Errorf("-rebalance %q: need K >= 2, K' >= 1, K != K'", s)
	}
	return from, to, nil
}

// watchAndClaim polls the broker until the partition qualifies for
// promotion — seen before, nothing connected, a snapshot to adopt, and
// no rebalance fence (a fence means a coordinator owns recovery) — for
// a few consecutive polls, then claims it under a fresh session id.
// A lost claim (another standby won) just resumes watching. Blocks
// until the claim is won.
func watchAndClaim(addr string, part, parts int) string {
	const confirm = 3
	streak := 0
	for {
		time.Sleep(50 * time.Millisecond)
		st, err := stream.QueryPartition(addr, part, parts)
		if err != nil || !(st.Seen && st.Connected == 0 && st.SnapshotSeq > 0 && st.Barrier == 0) {
			streak = 0
			continue
		}
		if streak++; streak < confirm {
			continue
		}
		session := stream.NewSessionID()
		if err := stream.ClaimPartition(addr, part, parts, session); err != nil {
			streak = 0
			continue
		}
		return session
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("detectd: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:7474", "renrend feed address")
		outAccept  = flag.Float64("out-accept", 0.5, "max outgoing accept ratio")
		freqMin    = flag.Float64("freq", 20, "min invitations/hour")
		ccMax      = flag.Float64("cc", 0.05, "max first-50-friends clustering coefficient")
		minObs     = flag.Int("min-requests", 10, "requests observed before judging")
		retries    = flag.Int("retries", 10, "max consecutive reconnect attempts")
		fromStart  = flag.Bool("from-start", false, "backfill the feed from sequence 1 (the server's spool must retain it) instead of joining at the live head; ignored when a checkpoint already pins the resume point")
		checkEvery = flag.Int("check-every", 5, "evaluate an account every Nth request it sends")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for pipeline checkpoints (empty: stateless)")
		ckptEvery  = flag.Duration("checkpoint-every", 10*time.Second, "interval between checkpoints")
		ckptKeep   = flag.Int("checkpoint-keep", checkpoint.DefaultKeep, "checkpoint generations to retain")
		ckptMaxLag = flag.Int("checkpoint-max-lag", stream.DefaultReplayBuffer/2,
			"checkpoint early once this many events are applied past the last checkpoint; must stay below the feed's replay window unless the feed runs a disk spool, where 0 disables the trigger")
		partition = flag.String("partition", "", "subscribe as partition i/K of a detection cluster (e.g. 0/4; empty: whole feed)")
		handoff   = flag.Bool("handoff", false, "offer pipeline snapshots to the broker every -checkpoint-every and adopt the partition's freshest broker snapshot on a start with no local checkpoint (requires -partition)")
		rebalance = flag.String("rebalance", "", "coordinate a live cluster rebalance K/K' (e.g. 3/5) against -addr and exit: fence the old group at a barrier, re-key its snapshots, commit — no daemon mode")
		rebTime   = flag.Duration("rebalance-timeout", time.Minute, "how long -rebalance waits for the old workers' snapshots to rendezvous at the barrier")
		standby   = flag.Bool("standby", false, "watch -partition instead of subscribing: promote automatically (claim the key, adopt the freshest broker snapshot, resume) when its worker dies; requires -partition and -handoff")
	)
	flag.Parse()
	if *rebalance != "" {
		from, to, err := parseRebalanceSpec(*rebalance)
		if err != nil {
			log.Fatal(err)
		}
		barrier, err := cluster.Rebalance(*addr, from, to, *rebTime)
		if err != nil {
			log.Fatalf("rebalance %d -> %d: %v", from, to, err)
		}
		fmt.Printf("rebalanced %d -> %d at barrier %d: old workers retired at %d, new workers adopt and resume from %d\n",
			from, to, barrier, barrier, barrier+1)
		return
	}
	part, parts, err := parsePartition(*partition)
	if err != nil {
		log.Fatal(err)
	}
	if *handoff && parts == 0 {
		log.Fatal("-handoff requires -partition: snapshot handoff is keyed by cluster partition")
	}
	if *standby && !(parts > 0 && *handoff) {
		log.Fatal("-standby requires -partition and -handoff: promotion adopts the dead worker's broker snapshot")
	}
	if *ckptDir != "" && *ckptMaxLag < 0 {
		log.Fatal("-checkpoint-max-lag must not be negative")
	}
	if *ckptDir != "" && *ckptMaxLag == 0 {
		// Without the lag trigger, acks move only on the wall-clock
		// interval. Against a memory-only feed whose replay window is
		// smaller than one interval's traffic that deadlocks the
		// producer/consumer pair (broken only by stall eviction); a
		// spooled feed demotes us to disk catch-up instead, so there it
		// is merely a retention trade-off.
		log.Print("warning: -checkpoint-max-lag 0 disables the lag trigger; only safe when the feed spools to disk (renrend -spool-dir)")
	}

	rule := detector.Rule{
		OutAcceptMax: *outAccept,
		FreqMin:      *freqMin,
		CCMax:        *ccMax,
		MinObserved:  *minObs,
	}
	opts := []detector.PipelineOption{
		detector.WithGraphReconstruction(),
		detector.WithCheckEvery(*checkEvery),
		detector.WithFlagHook(func(f detector.Flag) {
			fmt.Printf("FLAG account %d at t=%d: freq=%.1f/h outAccept=%.2f cc=%.4f sent=%d\n",
				f.ID, f.At, f.Vector.Freq1h, f.Vector.OutAccept, f.Vector.CC, f.Vector.OutSent)
		}),
	}
	if parts > 0 {
		opts = append(opts, detector.WithPartition(part, parts))
	}

	d := &daemon{addr: *addr, part: part, parts: parts, handoff: *handoff}
	if *ckptDir != "" {
		store, err := checkpoint.Open(*ckptDir, *ckptKeep)
		if err != nil {
			log.Fatal(err)
		}
		d.store = store
		st, path, err := store.Latest()
		if err != nil {
			log.Fatal(err)
		}
		if st != nil {
			// Restored pipelines keep the snapshot's graph mode.
			p, from, err := detector.NewPipelineFromSnapshot(rule, nil, st.Snapshot, opts...)
			if err != nil {
				log.Fatalf("restore %s: %v", path, err)
			}
			d.p = p
			d.session = st.Session
			d.resume = from
			d.written = st.Snapshot.Seq
			fmt.Printf("restored %s: %d accounts, %d flags, resuming feed at seq %d\n",
				path, len(st.Snapshot.Accounts), len(st.Snapshot.Flags), from)
		}
	}
	if *standby {
		// Watch the partition until its worker dies, then claim the key
		// so exactly one of N standbys promotes. The claim's session id
		// is what the promoted subscription must dial with — the broker
		// admits only it while the claim is fresh. Blocking: the daemon
		// is a warm standby until the claim is won.
		fmt.Printf("standby: watching partition %d/%d on %s\n", part, parts, *addr)
		d.sessionID = watchAndClaim(*addr, part, parts)
		fmt.Printf("standby: promoting as partition %d/%d\n", part, parts)
	}
	if d.p == nil && *handoff {
		// No local checkpoint: adopt the partition's freshest broker
		// snapshot, if a predecessor offered one, and resume the feed
		// from the sequence it is stamped at — state migration over
		// the wire instead of a spool replay.
		seq, data, err := stream.FetchSnapshot(*addr, part, parts)
		switch {
		case err == nil:
			var snap detector.PipelineSnapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				log.Fatalf("decode broker snapshot: %v", err)
			}
			if snap.Seq != seq {
				log.Fatalf("broker snapshot announced seq %d but is stamped %d", seq, snap.Seq)
			}
			p, from, err := detector.NewPipelineFromSnapshot(rule, nil, &snap, opts...)
			if err != nil {
				log.Fatalf("adopt broker snapshot: %v", err)
			}
			d.p = p
			d.resume = from
			fmt.Printf("adopted broker snapshot for partition %d/%d: %d accounts, %d flags, resuming feed at seq %d\n",
				part, parts, len(snap.Accounts), len(snap.Flags), from)
		case errors.Is(err, stream.ErrNoSnapshot):
			fmt.Printf("no broker snapshot offered for partition %d/%d; cold start\n", part, parts)
		default:
			log.Fatalf("fetch broker snapshot: %v", err)
		}
	}
	if d.p == nil {
		// The pipeline rebuilds the friendship graph from the feed (an
		// accept event is an edge creation).
		d.p = detector.NewPipeline(rule, nil, opts...)
		if *fromStart {
			// Replay the feed's whole history (spool-served) before
			// going live — a brand-new detector catching up on a
			// campaign that already streamed.
			d.resume = 1
		}
	}
	slice := "whole feed"
	if parts > 0 {
		slice = fmt.Sprintf("partition %d/%d", part, parts)
	}
	fmt.Printf("rule: %v\nsubscribing to %s (%s)\n", rule, *addr, slice)

	// First signal: kick the connection so the ingest loop unblocks,
	// writes the final checkpoint and exits cleanly. Second: die.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Println("signal: writing final checkpoint and shutting down")
		d.stop.Store(true)
		d.mu.Lock()
		if d.current != nil {
			// Interrupt, not Kick: the ingest loop still needs the
			// connection to carry the final checkpoint's ack.
			d.current.Interrupt()
		}
		d.mu.Unlock()
		<-sigc
		log.Fatal("second signal: exiting without checkpoint")
	}()

	err = d.run(*addr, *retries, *ckptEvery, uint64(*ckptMaxLag))
	if d.store != nil {
		d.finalCheckpoint()
	}
	if d.handoff {
		// Park the end state at the broker so a planned successor
		// adopts it with zero replay.
		d.offerSnapshot(d.p.Snapshot())
	}
	d.p.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("feed ended: %d events in %d batches, %d checkpoints, %d snapshot offers, %d accounts tracked, %d flagged\n",
		d.events, d.batches, d.checkpoints, d.offers, d.p.Tracked(), d.p.FlaggedCount())
}

// run is the ingest loop: dial (or resume), drain batches into the
// pipeline, checkpoint on the interval, reconnect on connection loss.
// It returns nil on clean end of feed or operator shutdown.
//
// Checkpoints fire on two triggers: the wall-clock interval, and —
// the liveness-critical one — applied progress reaching maxLag events
// past the last durable checkpoint. The lag trigger is what keeps a
// fast feed flowing: manual acks only move at checkpoints, so if the
// consumer could drain the server's whole replay window between
// checkpoints, the producer would block on a full window while the
// consumer blocked in RecvBatch waiting for it — a deadlock broken
// only by stall-timeout eviction. Acking by maxLag < window capacity
// makes that state unreachable.
func (d *daemon) run(addr string, maxRetries int, every time.Duration, maxLag uint64) error {
	backoff := 50 * time.Millisecond
	consecutive := 0
	lastCkpt := time.Now()
	for {
		if d.stop.Load() {
			return nil
		}
		var dialOpts []stream.DialOption
		if d.parts > 0 {
			dialOpts = append(dialOpts, stream.WithPartition(d.part, d.parts))
		}
		if d.session == "" && d.sessionID != "" {
			// Standby promotion: the first dial must present the claimed
			// session id or the broker rejects it while the claim is
			// fresh. Resumes reuse d.session as usual.
			dialOpts = append(dialOpts, stream.WithSessionID(d.sessionID))
		}
		var c *stream.Client
		var err error
		switch {
		case d.session != "":
			c, err = stream.DialResume(addr, d.session, d.resume, dialOpts...)
		case d.resume > 0:
			// -from-start backfill or snapshot handoff: a fresh session
			// that asks for history (spool-served) before flipping live.
			c, err = stream.DialFrom(addr, d.resume, dialOpts...)
		default:
			c, err = stream.Dial(addr, dialOpts...)
		}
		if err != nil {
			if errors.Is(err, stream.ErrGap) {
				if d.session == "" {
					// The -from-start backfill was refused: there is no
					// stale local state, the feed just doesn't retain the
					// requested history.
					return fmt.Errorf("feed cannot serve the -from-start backfill (history pruned or not spooled) — raise the feed's spool retention or drop -from-start: %w", err)
				}
				return fmt.Errorf("feed lost our resume window — state is stale, remove the checkpoint dir to rebuild from scratch: %w", err)
			}
			consecutive++
			if consecutive > maxRetries {
				return err
			}
			time.Sleep(backoff)
			if backoff < 2*time.Second {
				backoff *= 2
			}
			continue
		}
		consecutive = 0
		backoff = 50 * time.Millisecond
		// With checkpointing on, acks follow checkpoints (not
		// deliveries): the feed holds everything since the last durable
		// snapshot, which is exactly the crash-replay window.
		c.SetManualAck(d.store != nil)
		d.session = c.Session()
		// Anchor the pipeline's stream position to the subscription
		// point: a fresh feed may hand us sequences starting anywhere,
		// and a checkpoint cut before the first batch must still record
		// a sequence the server will accept a resume from.
		if c.LastSeq() > d.p.Seq() {
			d.p.Ingest(detector.Batch{LastSeq: c.LastSeq()})
		}
		d.mu.Lock()
		d.current = c
		d.mu.Unlock()
		if d.stop.Load() {
			// The signal landed while dialing, before d.current was
			// visible to the handler; deliver the interrupt ourselves.
			c.Interrupt()
		}

		for {
			var evs []osn.Event
			evs, err = c.RecvBatch()
			if err != nil {
				break
			}
			// Resuming from the last durable checkpoint can replay
			// events the in-memory pipeline already applied (a blip
			// whose pre-resume checkpoint failed); counters are not
			// idempotent, so drop everything at or below the pipeline's
			// own sequence. Partitioned batches are sparse in the
			// global order and carry per-event sequences, so the trim
			// walks those instead of doing contiguous arithmetic.
			last := c.LastSeq()
			if last <= d.p.Seq() {
				continue
			}
			if seqs := c.LastBatchSeqs(); seqs != nil {
				drop := 0
				for drop < len(seqs) && seqs[drop] <= d.p.Seq() {
					drop++
				}
				evs = evs[drop:]
			} else if first := last - uint64(len(evs)) + 1; first <= d.p.Seq() {
				evs = evs[d.p.Seq()-first+1:]
			}
			d.p.Ingest(detector.Batch{Events: evs, LastSeq: last})
			d.events += len(evs)
			d.batches++
			interval := time.Since(lastCkpt) >= every
			lag := d.store != nil && maxLag > 0 && d.p.Seq()-d.written >= maxLag
			if (d.store != nil || d.handoff) && (interval || lag) {
				d.writeCheckpoint(c)
				lastCkpt = time.Now()
			}
		}
		d.mu.Lock()
		d.current = nil
		d.mu.Unlock()
		if errors.Is(err, stream.ErrRebalanced) {
			// The cluster was resized out from under this shape: the
			// broker served everything owed through the barrier and
			// fenced the rest. Pin the pipeline to the barrier, offer the
			// snapshot cut exactly there (the coordinator's rendezvous),
			// and retire — a new-shape worker inherits the state.
			barrier, nparts, _ := c.Rebalanced()
			if barrier > d.p.Seq() {
				d.p.Ingest(detector.Batch{LastSeq: barrier})
			}
			if d.store != nil || d.handoff {
				d.writeCheckpoint(c)
			}
			c.Close()
			fmt.Printf("partition group %d rebalanced to %d at barrier %d; retiring\n",
				d.parts, nparts, barrier)
			return nil
		}
		if errors.Is(err, stream.ErrClosed) {
			// Clean end of feed: checkpoint and ack through the final
			// sequence while the connection can still carry the ack, so
			// the producer's sent==delivered audit holds.
			if d.store != nil {
				d.writeCheckpoint(c)
			}
			c.Close()
			return nil
		}
		if d.stop.Load() {
			// Operator shutdown: checkpoint and push the ack through the
			// interrupted-but-alive connection so the feed's accounting
			// reflects what is durably applied, then hang up.
			if d.store != nil {
				d.writeCheckpoint(c)
			}
			c.Close()
			return nil
		}
		c.Close()
		// Connection lost mid-stream. Checkpoint before resuming:
		// DialResume implicitly acks everything below the resume
		// sequence, so the resume point must never run ahead of the
		// newest durable snapshot — if the checkpoint write fails, we
		// resume from the previous durable generation instead and let
		// the dedupe guard above skip the replayed prefix.
		if d.store != nil {
			d.writeCheckpoint(nil)
			lastCkpt = time.Now()
		}
		if d.written > 0 {
			d.resume = d.written + 1
		} else {
			// No durable state yet (fresh session, first checkpoint
			// failed): nothing to protect, resume at delivery position.
			d.resume = c.LastSeq() + 1
		}
	}
}

// writeCheckpoint snapshots the pipeline, persists it (when a local
// store is configured), and — once the file is durable — acknowledges
// the feed through the snapshot's sequence (when a live connection is
// available to carry the ack). With -handoff the same snapshot is
// also offered to the broker for cluster handoff. Failures are
// logged, not fatal: the daemon keeps detecting, the previous
// checkpoint generation keeps crash recovery possible, and the
// broker's previous offer (or the spool) keeps handoff possible.
func (d *daemon) writeCheckpoint(c *stream.Client) {
	snap := d.p.Snapshot()
	if d.handoff {
		d.offerSnapshot(snap)
	}
	if d.store == nil {
		return
	}
	if _, err := d.store.Write(d.session, snap); err != nil {
		log.Printf("checkpoint failed (previous generation still valid): %v", err)
		return
	}
	d.checkpoints++
	d.written = snap.Seq
	if c != nil {
		c.Ack(snap.Seq)
	}
}

// offerSnapshot publishes a snapshot to the broker's handoff
// rendezvous, keyed by this daemon's cluster partition. Best-effort.
func (d *daemon) offerSnapshot(snap *detector.PipelineSnapshot) {
	if snap.Seq == 0 {
		return // nothing applied yet; nothing worth adopting
	}
	data, err := json.Marshal(snap)
	if err != nil {
		log.Printf("snapshot offer failed to encode: %v", err)
		return
	}
	if err := stream.OfferSnapshot(d.addr, d.part, d.parts, snap.Seq, data); err != nil {
		log.Printf("snapshot offer failed (broker keeps the previous offer): %v", err)
		return
	}
	d.offers++
}

// finalCheckpoint persists the pipeline's end state so the next start
// resumes cleanly even after a graceful shutdown mid-campaign. No-op
// when the newest checkpoint already covers everything applied.
func (d *daemon) finalCheckpoint() {
	if d.written == d.p.Seq() && d.checkpoints > 0 {
		return
	}
	snap := d.p.Snapshot()
	if path, err := d.store.Write(d.session, snap); err != nil {
		log.Printf("final checkpoint failed: %v", err)
	} else {
		d.checkpoints++
		d.written = snap.Seq
		fmt.Printf("final checkpoint %s (seq %d, %d accounts, %d flags)\n",
			path, snap.Seq, len(snap.Accounts), len(snap.Flags))
	}
}
