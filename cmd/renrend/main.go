// Command renrend runs the OSN simulation as a feed producer: it
// publishes every operational-log event into a streamd broker over the
// publish sub-protocol (sequence-numbered, acked batches; see
// docs/ARCHITECTURE.md) — the role Renren's frontends played for the
// paper's deployed detector. The broker sequences, spools and fans the
// feed out to detectd subscribers; renrend only produces.
//
// A subscriber joins the feed at its live head, so start detectd
// before renrend, or run streamd with -spool-dir and detectd with
// -from-start to backfill the campaign from sequence 1.
//
// -producers K and -producer-index i split the campaign across K
// processes — each runs the full deterministic simulation from the
// shared -seed but publishes only the actors that hash-partition to its
// index, so the K processes jointly emit exactly the event set one
// process would. A process that is killed and restarted resumes
// exactly-once: the broker reports how many of its events are already
// sequenced and the regenerated deterministic stream skips that
// prefix. -maxrate is the target rate of the whole producer group:
// each process paces at maxrate/K so K producers do not overdrive the
// broker at K times the requested rate.
//
// Usage:
//
//	streamd -addr 127.0.0.1:7474 -spool-dir /var/lib/streamd/spool &
//	detectd -addr 127.0.0.1:7474 &
//	renrend -addr 127.0.0.1:7474 -normals 6000 -sybils 80 -hours 400
//
//	# or as one of three producers jointly generating the campaign:
//	renrend -producers 3 -producer-index 1 -normals 6000 -sybils 80 -hours 400
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stream"
)

// config is a parsed command line.
type config struct {
	addr, id         string
	producers, index int
	seed             int64
	normals, sybils  int
	hours            int64
	maxRate          int
}

// parseArgs maps the command line onto a config, rejecting a producer
// index outside the group. Usage and parse errors are written to out.
func parseArgs(args []string, out io.Writer) (config, error) {
	fs := flag.NewFlagSet("renrend", flag.ContinueOnError)
	fs.SetOutput(out)
	var c config
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7474", "feed broker to publish into (streamd, or the root of a relay tree)")
	fs.Int64Var(&c.seed, "seed", 1, "deterministic seed (shared by every producer of one campaign)")
	fs.IntVar(&c.normals, "normals", 6000, "background user population")
	fs.IntVar(&c.sybils, "sybils", 80, "Sybil accounts")
	fs.Int64Var(&c.hours, "hours", 400, "observation window (hours)")
	fs.IntVar(&c.maxRate, "maxrate", 0, "max events/second published by the whole producer group (0 = unlimited); each process paces at maxrate/producers. Broker backpressure already paces the feed; set this only to smooth bursts")
	fs.IntVar(&c.producers, "producers", 1, "size of the producer group jointly generating the campaign")
	fs.IntVar(&c.index, "producer-index", 0, "this process's partition index in [0, producers)")
	fs.StringVar(&c.id, "producer-id", "", "producer id registered with the broker (default: p<producer-index>)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.index < 0 || c.index >= c.producers {
		return c, fmt.Errorf("-producer-index %d out of range [0, %d)", c.index, c.producers)
	}
	if c.id == "" {
		c.id = fmt.Sprintf("p%d", c.index)
	}
	return c, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("renrend: ")
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := publish(c, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// publish runs the full deterministic simulation and publishes this
// process's actor partition into the broker at c.addr, narrating to
// out. Exactly-once across kill -9 rides on determinism — the broker
// reports how many of this producer's events are already sequenced,
// and the regenerated stream skips exactly that prefix (at full speed:
// pacing starts at the first freshly published event). A failed publish
// stops publishing; the simulation runs out and the error is returned.
func publish(c config, out io.Writer) error {
	pub, err := stream.NewPublisher(c.addr, c.id, c.producers)
	if err != nil {
		return err
	}
	skip := pub.SkipEvents()
	fmt.Fprintf(out, "registered as producer %s (%d of %d), epoch %d\n", c.id, c.index, c.producers, pub.Epoch())
	if skip > 0 {
		fmt.Fprintf(out, "broker already holds %d of our events; regenerating and skipping that prefix\n", skip)
	}
	// -maxrate is the producer group's aggregate budget; this process
	// paces its own share so K producers sum to roughly maxrate.
	rate := 0
	if c.maxRate > 0 {
		rate = max(c.maxRate/c.producers, 1)
	}

	pop := agents.NewPopulation(c.seed, agents.DefaultParams())
	pop.Net.SetKeepLog(false) // observers only; no need to retain
	var seen, published uint64
	var paceStart time.Time
	var perr error
	pop.Net.RegisterObserver(func(ev osn.Event) {
		if perr != nil || osn.Partition(ev.Actor, c.producers) != c.index {
			return
		}
		seen++
		if seen <= skip {
			return // a predecessor process already published this prefix
		}
		if perr = pub.Publish(ev); perr != nil {
			return
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
	pop.Bootstrap(c.normals)
	pop.LaunchSybils(c.sybils, c.hours/4*sim.TicksPerHour)
	pop.RunFor(c.hours * sim.TicksPerHour)
	if perr != nil {
		return fmt.Errorf("publish: %w", perr)
	}
	if err := pub.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	st := pub.Stats()
	fmt.Fprintln(out, pop.Stats())
	fmt.Fprintf(out, "producer %s: published %d events in %d batches (skipped %d already-durable), acked through batch %d, %d batches resent\n",
		c.id, st.Events, st.Batches, skip, st.Acked, st.Resent)
	return nil
}
