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
//   - -handoff makes the daemon's state durable at the broker, its one
//     keeper: every -checkpoint-every it offers a snapshot to the broker
//     and acks the feed through it only once the broker confirmed it.
//     The broker never waits on those acks; they only let its spool's
//     retention move. A restart adopts the broker's snapshot for its
//     partition (the whole feed is key 0/1), so even kill -9 recovery
//     is exactly-once. The broker writes the snapshot beside its spool
//     (streamd -spool-dir), so it survives a broker restart too.
//     SIGINT/SIGTERM offer a final snapshot, ack it and exit 0; a
//     second signal exits at once.
//   - -from-start backfills the feed's spooled history from sequence 1
//     on a start with no state, instead of joining the live head.
//   - -partition i/K joins a K-way detection cluster: the broker serves
//     partition i's slice and the daemon flags only accounts it owns,
//     so K daemons flag exactly what one whole-feed daemon would. A
//     broker snapshot stamped for another partition refuses the start.
//   - -rebalance K/K' prepares a live rebalance instead and exits: the
//     root broker sequences a cutover record at a barrier B, which it
//     prints. The old daemons judge through the record and retire at B,
//     each offering its snapshot there; K' daemons started with
//     -partition i/K' -handoff (before or after that) wait for the K
//     snapshots, adopt them in the subscribe handshake, re-key them
//     into their own partition and resume from B+1. The broker commits
//     the rebalance once every new daemon has offered its state. A
//     daemon of the old shape started after the cut, with no state
//     below B, has nothing to judge: it says so and exits 0.
//   - A partition has one judge: the broker admits one daemon per
//     -partition key. A second daemon with the same flags waits while
//     the key is held (a spare; a signal then just exits) and takes the
//     key over, adopting the dead owner's freshest offer, when the
//     owner's connection goes. A running daemon whose resume finds the
//     key taken over says so and waits as a spare in turn. A spare still
//     waiting when the broker closes the feed has nothing to judge: it
//     says so and exits 0. A broker that stops answering (killed, or
//     restarting) is redialed up to -retries times, then fails.
//
// Usage:
//
//	detectd -addr 127.0.0.1:7474 -handoff -checkpoint-every 10s
//	detectd -addr 127.0.0.1:7474 -partition 2/4 -handoff
//	detectd -addr 127.0.0.1:7474 -rebalance 4/2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
	"sybilwild/internal/stream"
)

// options is a parsed command line: the worker's configuration and the
// mode to run it in.
type options struct {
	cfg cluster.Config

	// -rebalance K/K' (rebalanceTo 0: run a worker instead).
	rebalanceFrom, rebalanceTo int
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
	fs.BoolVar(&c.FromStart, "from-start", false, "backfill the feed from sequence 1 (the server's spool must retain it) instead of joining at the live head; ignored when -handoff adopts a broker snapshot")
	fs.IntVar(&c.CheckEvery, "check-every", 5, "evaluate an account every Nth request it sends")
	fs.DurationVar(&c.Every, "checkpoint-every", 10*time.Second, "interval between -handoff snapshot offers")
	partition := fs.String("partition", "", "subscribe as partition i/K of a detection cluster (e.g. 0/4; empty: whole feed)")
	fs.BoolVar(&c.Handoff, "handoff", false, "keep the daemon's state at the broker: offer a pipeline snapshot every -checkpoint-every, ack the feed only through confirmed offers, and adopt the partition's broker snapshot at start (the whole feed is key 0/1)")
	rebalance := fs.String("rebalance", "", "prepare a live cluster rebalance K/K' (e.g. 3/5) at -addr, print its barrier and exit: the K old workers retire there, and K' workers started with -partition i/K' -handoff adopt their cut")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *rebalance != "" {
		var ok bool
		if o.rebalanceFrom, o.rebalanceTo, ok = pair(*rebalance); !ok {
			return o, fmt.Errorf("-rebalance %q: want K/K', e.g. 3/5", *rebalance)
		}
		if o.rebalanceFrom < 2 || o.rebalanceTo < 1 || o.rebalanceFrom == o.rebalanceTo {
			return o, fmt.Errorf("-rebalance %q: need K >= 2, K' >= 1, K != K'", *rebalance)
		}
		return o, nil
	}
	if *partition != "" {
		var ok bool
		if c.Part, c.Parts, ok = pair(*partition); !ok {
			return o, fmt.Errorf("-partition %q: want i/K, e.g. 0/4", *partition)
		}
		if c.Parts < 1 || c.Part < 0 || c.Part >= c.Parts {
			return o, fmt.Errorf("-partition %q: partition index out of range", *partition)
		}
	}
	return o, nil
}

// pair parses "a/b" into its two integers; anything else, trailing
// input included, is not a pair.
func pair(s string) (a, b int, ok bool) {
	x, y, found := strings.Cut(s, "/")
	a, errA := strconv.Atoi(x)
	b, errB := strconv.Atoi(y)
	return a, b, found && errA == nil && errB == nil
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
		barrier, err := stream.PrepareRebalance(cfg.Addr, o.rebalanceFrom, o.rebalanceTo)
		if err != nil {
			log.Fatalf("rebalance %d -> %d: %v", o.rebalanceFrom, o.rebalanceTo, err)
		}
		fmt.Printf("rebalance %d -> %d prepared at barrier %d: old workers retire at %d, new workers adopt their cut and resume from %d\n",
			o.rebalanceFrom, o.rebalanceTo, barrier, barrier, barrier+1)
		return
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

	for {
		w, err := cluster.Start(cfg)
		var reb *stream.RebalancedError
		switch {
		case errors.As(err, &reb):
			fmt.Printf("%s: %v; nothing to judge\n", slice, reb)
			return
		case errors.Is(err, stream.ErrClosed):
			fmt.Printf("%s: the feed ended while this worker waited; nothing to judge\n", slice)
			return
		case err != nil:
			log.Fatal(err)
		}
		err = run(w, cfg)
		if !errors.Is(err, stream.ErrHeld) {
			if err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Printf("%s: another worker took the key over with its state; waiting for it\n", slice)
	}
}

// run reports a started worker and waits for it: the first signal
// stops it gracefully (final offer, ack), a second one exits at once.
// It prints the feed's end and returns the worker's error.
func run(w *cluster.Worker, cfg cluster.Config) error {
	if origin := w.Origin(); origin != "" {
		fmt.Printf("%s, resuming feed at seq %d\n", origin, w.ResumedFrom())
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigc:
		case <-done:
			return
		}
		fmt.Println("signal: offering a final snapshot and shutting down")
		w.Stop()
		select {
		case <-sigc:
			log.Fatal("second signal: exiting without a final snapshot")
		case <-done:
		}
	}()

	err := w.Wait()
	if barrier, nparts, ok := w.Rebalanced(); ok {
		fmt.Printf("partition group %d rebalanced to %d at barrier %d; retiring\n", cfg.Parts, nparts, barrier)
	}
	if err != nil {
		return err
	}
	st := w.Stats()
	fmt.Printf("feed ended: %d events in %d batches, %d snapshot offers (newest at seq %d), %d accounts tracked, %d flagged\n",
		st.Events, st.Batches, st.Offers, st.Offered, w.Pipeline().Tracked(), w.Pipeline().FlaggedCount())
	return nil
}
