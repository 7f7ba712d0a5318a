// Command benchjson converts `go test -bench` text output on stdin
// into a JSON array on stdout, one object per benchmark result with
// every reported metric (ns/op, custom b.ReportMetric units, …) keyed
// by unit.
//
// With -gate 'A<=B*SLACK' it asserts a relative invariant WITHIN the
// fresh run — benchmark A's ns/op must not exceed benchmark B's times
// SLACK — and exits non-zero when it doesn't hold or either benchmark
// is missing. Relative gates survive noisy shared runners (both sides
// ran on the same machine moments apart), which is what lets CI fail
// loudly on a real scaling regression without gating on absolute
// numbers. -gate repeats; every gate is evaluated and reported, and
// the exit is non-zero if any fails (`make bench-gate`):
//
//	go test -bench=RelayFanout ... | benchjson \
//	  -gate 'BenchmarkRelayFanout/root-downstream=64<=BenchmarkRelayFanout/root-downstream=0*3.0' \
//	  -gate 'BenchmarkRelayFanout/tree-edges=2x64<=BenchmarkRelayFanout/flat-subs=128*1.3'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// result is one benchmark line. Metrics maps unit → value; JSON
// object keys come out sorted, so output is deterministic for a given
// bench run.
type result struct {
	Package    string             `json:"package,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// gateList collects every -gate flag, in order.
type gateList []string

func (g *gateList) String() string     { return strings.Join(*g, " ") }
func (g *gateList) Set(v string) error { *g = append(*g, v); return nil }

// run is the command with its arguments and streams passed in.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var gates gateList
	fs.Var(&gates, "gate", "relative invariant 'A<=B*SLACK' over the fresh run's ns/op; repeatable, every gate is evaluated; exit non-zero when any is violated")
	if err := fs.Parse(args); err != nil {
		return err
	}

	out, err := parseBench(stdin)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	return checkGates(stderr, gates, out)
}

// checkGates evaluates every gate, reporting each on w, and fails if
// any of them does.
func checkGates(w io.Writer, gates []string, fresh []result) error {
	failed := 0
	for _, g := range gates {
		if err := checkGate(w, g, fresh); err != nil {
			fmt.Fprintln(w, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d gates failed", failed, len(gates))
	}
	return nil
}

// checkGate evaluates one 'A<=B*SLACK' invariant (SLACK optional,
// default 1.0) against the fresh results. Benchmark names match with
// or without the -GOMAXPROCS suffix `go test` appends, so one gate
// expression works on any runner shape. A missing side is a hard
// failure — a renamed benchmark must not silently disarm the gate.
func checkGate(w io.Writer, expr string, fresh []result) error {
	nameA, rest, ok := strings.Cut(expr, "<=")
	if !ok {
		return fmt.Errorf("gate %q: want 'A<=B' or 'A<=B*SLACK'", expr)
	}
	nameB := rest
	slack := 1.0
	if b, s, ok := strings.Cut(rest, "*"); ok {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("gate %q: bad slack %q", expr, s)
		}
		nameB, slack = b, f
	}
	a, okA := findByName(fresh, nameA)
	b, okB := findByName(fresh, nameB)
	if !okA || !okB {
		missing := nameA
		if okA {
			missing = nameB
		}
		return fmt.Errorf("gate %q: benchmark %q not in the fresh run", expr, missing)
	}
	av, bv := a.Metrics["ns/op"], b.Metrics["ns/op"]
	if av == 0 || bv == 0 {
		return fmt.Errorf("gate %q: ns/op missing or zero (%v vs %v)", expr, av, bv)
	}
	if av > bv*slack {
		return fmt.Errorf("gate FAILED: %s ns/op %.4g > %s ns/op %.4g × %.2f = %.4g",
			a.Name, av, b.Name, bv, slack, bv*slack)
	}
	fmt.Fprintf(w, "gate ok: %s ns/op %.4g <= %s ns/op %.4g × %.2f\n", a.Name, av, b.Name, bv, slack)
	return nil
}

// findByName locates a fresh result whose name equals want, ignoring
// the trailing -GOMAXPROCS decoration.
func findByName(rs []result, want string) (result, bool) {
	for _, r := range rs {
		name := r.Name
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if name == want || r.Name == want {
			return r, true
		}
	}
	return result{}, false
}

// parseBench reads `go test -bench` text output into results.
func parseBench(r io.Reader) ([]result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := []result{}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		// Shape: Name iterations (value unit)+ — anything else (e.g. a
		// stray test log line starting with "Benchmark") is skipped.
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := result{Package: pkg, Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			r.Metrics[fields[i+1]] = v
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}
