// Command detectd is the real-time Sybil detector daemon: it
// subscribes to a feed broker (streamd, as the root or any relay edge
// of a tree), reconstructs the friendship graph from accept events,
// tracks the paper's behavioural features incrementally, and prints a
// FLAG line the moment an account crosses the detection thresholds.
//
// detectd is flags over cluster.Worker, the one worker lifecycle (see
// docs/ARCHITECTURE.md, "Resume contract"); this file parses, prints
// and handles signals. A lost connection resumes the session with
// backoff, so a network blip costs no events.
//
//   - -checkpoint-dir makes the daemon durable: every -checkpoint-every
//     (and every -checkpoint-max-lag sequences) it writes an atomic
//     checkpoint file and only then acks the feed through it. A restart
//     resumes from the newest checkpoint, so even kill -9 recovery is
//     exactly-once; against a spooled feed the resume succeeds from any
//     retained sequence. SIGINT/SIGTERM write a final checkpoint, ack
//     it and exit 0; a second signal exits at once.
//   - -from-start backfills the feed's spooled history from sequence 1
//     on a start with no state, instead of joining the live head.
//   - -partition i/K joins a K-way detection cluster: the broker serves
//     partition i's slice and the daemon flags only accounts it owns,
//     so K daemons flag exactly what one whole-feed daemon would.
//     -handoff also offers a snapshot to the broker at every save and
//     adopts the partition's offer at start. Start-up takes the fresher
//     of the local checkpoint and the broker's offer (the local one on
//     a tie) and refuses a state stamped for another partition.
//   - -rebalance K/K' runs a one-shot coordinator instead: it fences the
//     K-way group at a barrier, re-keys the old workers' retirement
//     snapshots into K', offers them and commits. The old daemons
//     retire; K' daemons started with -partition i/K' -handoff adopt
//     the state and resume from barrier+1.
//   - -standby parks a warm standby for its -partition: when the
//     partition's worker dies it claims the key (of N standbys exactly
//     one wins), adopts the freshest state and promotes itself.
//
// Usage:
//
//	detectd -addr 127.0.0.1:7474 -checkpoint-dir /var/lib/detectd -checkpoint-every 10s
//	detectd -addr 127.0.0.1:7474 -partition 2/4 -handoff
//	detectd -addr 127.0.0.1:7474 -rebalance 4/2
//	detectd -addr 127.0.0.1:7474 -partition 1/2 -handoff -standby
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
	"sybilwild/internal/stream"
)

// options is a parsed command line: the worker's configuration and the
// mode to run it in.
type options struct {
	cfg     cluster.Config
	standby bool

	// -rebalance K/K' (rebalanceTo 0: not a coordinator) and its timeout.
	rebalanceFrom, rebalanceTo int
	rebalanceTimeout           time.Duration
}

// parseArgs maps the command line onto options, rejecting inconsistent
// combinations. Usage and parse errors are written to out.
func parseArgs(args []string, out io.Writer) (options, error) {
	fs := flag.NewFlagSet("detectd", flag.ContinueOnError)
	fs.SetOutput(out)
	var o options
	c := &o.cfg
	fs.StringVar(&c.Addr, "addr", "127.0.0.1:7474", "feed broker address (streamd, as the root or a relay edge)")
	fs.Float64Var(&c.Rule.OutAcceptMax, "out-accept", 0.5, "max outgoing accept ratio")
	fs.Float64Var(&c.Rule.FreqMin, "freq", 20, "min invitations/hour")
	fs.Float64Var(&c.Rule.CCMax, "cc", 0.05, "max first-50-friends clustering coefficient")
	fs.IntVar(&c.Rule.MinObserved, "min-requests", 10, "requests observed before judging")
	fs.IntVar(&c.Retries, "retries", 10, "max consecutive reconnect attempts")
	fs.BoolVar(&c.FromStart, "from-start", false, "backfill the feed from sequence 1 (the server's spool must retain it) instead of joining at the live head; ignored when a checkpoint already pins the resume point")
	fs.IntVar(&c.CheckEvery, "check-every", 5, "evaluate an account every Nth request it sends")
	fs.StringVar(&c.Dir, "checkpoint-dir", "", "directory for pipeline checkpoints (empty: stateless)")
	fs.DurationVar(&c.Every, "checkpoint-every", 10*time.Second, "interval between checkpoints")
	fs.IntVar(&c.Keep, "checkpoint-keep", cluster.DefaultKeep, "checkpoint generations to retain")
	fs.IntVar(&c.MaxLag, "checkpoint-max-lag", stream.DefaultReplayBuffer/2,
		"checkpoint early once this many events are applied past the last checkpoint; must stay below the feed's -window (its in-memory tail, in feed events) unless the feed runs a disk spool, where 0 disables the trigger")
	partition := fs.String("partition", "", "subscribe as partition i/K of a detection cluster (e.g. 0/4; empty: whole feed)")
	fs.BoolVar(&c.Handoff, "handoff", false, "offer pipeline snapshots to the broker every -checkpoint-every and adopt the partition's broker snapshot at start when it is fresher than the local checkpoint (requires -partition)")
	rebalance := fs.String("rebalance", "", "coordinate a live cluster rebalance K/K' (e.g. 3/5) against -addr and exit: fence the old group at a barrier, re-key its snapshots, commit — no daemon mode")
	fs.DurationVar(&o.rebalanceTimeout, "rebalance-timeout", time.Minute, "how long -rebalance waits for the old workers' snapshots to rendezvous at the barrier")
	fs.BoolVar(&o.standby, "standby", false, "watch -partition instead of subscribing: promote automatically (claim the key, adopt the freshest state, resume) when its worker dies; requires -partition and -handoff")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *rebalance != "" {
		if n, err := fmt.Sscanf(*rebalance, "%d/%d", &o.rebalanceFrom, &o.rebalanceTo); n != 2 || err != nil {
			return o, fmt.Errorf("-rebalance %q: want K/K', e.g. 3/5", *rebalance)
		}
		if o.rebalanceFrom < 2 || o.rebalanceTo < 1 || o.rebalanceFrom == o.rebalanceTo {
			return o, fmt.Errorf("-rebalance %q: need K >= 2, K' >= 1, K != K'", *rebalance)
		}
		return o, nil
	}
	if *partition != "" {
		if n, err := fmt.Sscanf(*partition, "%d/%d", &c.Part, &c.Parts); n != 2 || err != nil {
			return o, fmt.Errorf("-partition %q: want i/K, e.g. 0/4", *partition)
		}
		if c.Parts < 1 || c.Part < 0 || c.Part >= c.Parts {
			return o, fmt.Errorf("-partition %q: partition index out of range", *partition)
		}
	}
	switch {
	case c.Handoff && c.Parts == 0:
		return o, errors.New("-handoff requires -partition: snapshot handoff is keyed by cluster partition")
	case o.standby && !c.Handoff:
		return o, errors.New("-standby requires -partition and -handoff: promotion adopts the dead worker's broker snapshot")
	case c.Dir != "" && c.MaxLag < 0:
		return o, errors.New("-checkpoint-max-lag must not be negative")
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("detectd: ")
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	cfg := o.cfg
	if o.rebalanceTo > 0 {
		barrier, err := cluster.Rebalance(cfg.Addr, o.rebalanceFrom, o.rebalanceTo, o.rebalanceTimeout)
		if err != nil {
			log.Fatalf("rebalance %d -> %d: %v", o.rebalanceFrom, o.rebalanceTo, err)
		}
		fmt.Printf("rebalanced %d -> %d at barrier %d: old workers retired at %d, new workers adopt and resume from %d\n",
			o.rebalanceFrom, o.rebalanceTo, barrier, barrier, barrier+1)
		return
	}
	if cfg.Dir != "" && cfg.MaxLag == 0 {
		// Without the lag trigger, acks move only on the interval: against
		// a memory-only feed whose tail is smaller than one interval's
		// traffic, producer and consumer deadlock until stall eviction. A
		// spooled feed serves the session from disk instead.
		log.Print("warning: -checkpoint-max-lag 0 disables the lag trigger; only safe when the feed spools to disk (streamd -spool-dir)")
	}
	cfg.OnFlag = func(f detector.Flag) {
		fmt.Printf("FLAG account %d at t=%d: freq=%.1f/h outAccept=%.2f cc=%.4f sent=%d\n",
			f.ID, f.At, f.Vector.Freq1h, f.Vector.OutAccept, f.Vector.CC, f.Vector.OutSent)
	}
	slice := "whole feed"
	if cfg.Parts > 0 {
		slice = fmt.Sprintf("partition %d/%d", cfg.Part, cfg.Parts)
	}
	fmt.Printf("rule: %v\nsubscribing to %s (%s)\n", cfg.Rule, cfg.Addr, slice)

	var w *cluster.Worker
	if o.standby {
		fmt.Printf("standby: watching %s on %s\n", slice, cfg.Addr)
		sb, err := cluster.StartStandby(cfg)
		if err != nil {
			log.Fatal(err)
		}
		<-sb.Done()
		if w = sb.Worker(); w == nil {
			log.Fatalf("standby: promotion failed: %v", sb.Err())
		}
		fmt.Printf("standby: promoting as %s\n", slice)
	} else if w, err = cluster.Start(cfg); err != nil {
		log.Fatal(err)
	}
	if origin := w.Origin(); origin != "" {
		fmt.Printf("%s, resuming feed at seq %d\n", origin, w.ResumedFrom())
	}

	// First signal: stop gracefully (final checkpoint, ack, offer).
	// Second: die.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Println("signal: writing final checkpoint and shutting down")
		w.Stop()
		<-sigc
		log.Fatal("second signal: exiting without checkpoint")
	}()

	err = w.Wait()
	if barrier, nparts, ok := w.Rebalanced(); ok {
		fmt.Printf("partition group %d rebalanced to %d at barrier %d; retiring\n", cfg.Parts, nparts, barrier)
	}
	if err != nil {
		log.Fatal(err)
	}
	st := w.Stats()
	fmt.Printf("feed ended: %d events in %d batches, %d checkpoints (newest at seq %d), %d snapshot offers, %d accounts tracked, %d flagged\n",
		st.Events, st.Batches, st.Checkpoints, st.Checkpointed, st.Offers, w.Pipeline().Tracked(), w.Pipeline().FlaggedCount())
}
