// Command benchjson converts `go test -bench` text output on stdin
// into a JSON array on stdout, one object per benchmark result with
// every reported metric (ns/op, custom b.ReportMetric units, …) keyed
// by unit. CI runs it via `make bench-json` to track the performance
// trajectory as a machine-readable artifact:
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | benchjson > BENCH.json
//
// With -compare BASELINE.json it additionally diffs the fresh run
// against a committed baseline and prints per-benchmark deltas to
// stderr (stdout stays pure JSON), so the bench-json CI job's log
// shows the perf trajectory PR over PR:
//
//	go test -bench=. ... | benchjson -compare BENCH_3.json > BENCH_4.json
//
// With -gate 'A<=B*SLACK' it asserts a relative invariant WITHIN the
// fresh run — benchmark A's ns/op must not exceed benchmark B's times
// SLACK — and exits non-zero when it doesn't hold or either benchmark
// is missing. Relative gates survive noisy shared runners (both sides
// ran on the same machine moments apart), which is what lets CI fail
// loudly on a real scaling regression without gating on absolute
// numbers. -gate repeats; every gate is evaluated and reported, and
// the exit is non-zero if any fails:
//
//	go test -bench=RelayFanout ... | benchjson \
//	  -gate 'BenchmarkRelayFanout/root-downstream=64<=BenchmarkRelayFanout/root-downstream=0*3.0' \
//	  -gate 'BenchmarkRelayFanout/tree-edges=2x64<=BenchmarkRelayFanout/flat-subs=128*1.3'
//
// With -trend 'Name' (or 'Name:unit', default unit ns/op) it reads no
// stdin at all: it scans the committed BENCH_*.json files — positional
// arguments override the file list — in numeric order and prints one
// line per file with the named benchmark's metric and its change from
// the previous file it appeared in, so the whole perf trajectory of
// one number is visible without manually diffing baselines:
//
//	benchjson -trend 'BenchmarkPublishIngest/producers=4:Mevents/s'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
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
	compare := fs.String("compare", "", "baseline BENCH JSON file to diff the fresh run against (deltas on stderr)")
	var gates gateList
	fs.Var(&gates, "gate", "relative invariant 'A<=B*SLACK' over the fresh run's ns/op; repeatable, every gate is evaluated; exit non-zero when any is violated")
	trend := fs.String("trend", "", "print a benchmark metric's trajectory across committed BENCH_*.json files: 'Name' or 'Name:unit' (default ns/op); reads no stdin, positional args override the file list")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *trend != "" {
		files := fs.Args()
		if len(files) == 0 {
			var err error
			if files, err = filepath.Glob("BENCH_*.json"); err != nil {
				return err
			}
		}
		return printTrend(stdout, *trend, files)
	}

	out, err := parseBench(stdin)
	if err != nil {
		return err
	}
	if *compare != "" {
		if base, err := loadBaseline(*compare); err != nil {
			// Non-fatal: a fresh checkout may predate the baseline; the
			// JSON artifact is still produced.
			fmt.Fprintf(stderr, "benchjson: compare skipped: %v\n", err)
		} else {
			printDeltas(stderr, *compare, base, out)
		}
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

// printTrend renders one benchmark metric's value across the given
// baseline files in numeric filename order, with the relative change
// from the previous file the benchmark appeared in. A file that lacks
// the benchmark (or the unit) prints as absent rather than breaking
// the series — benchmarks are born mid-history. A benchmark found in
// no file at all is an error: a typo must not print an empty, healthy-
// looking trajectory.
func printTrend(w io.Writer, spec string, files []string) error {
	name, unit := spec, "ns/op"
	if n, u, ok := strings.Cut(spec, ":"); ok && u != "" {
		name, unit = n, u
	}
	if len(files) == 0 {
		return fmt.Errorf("trend: no BENCH_*.json files found")
	}
	files = append([]string(nil), files...)
	sort.Slice(files, func(i, j int) bool {
		a, b := baselineSeq(files[i]), baselineSeq(files[j])
		if a != b {
			return a < b
		}
		return files[i] < files[j]
	})
	fmt.Fprintf(w, "trend of %s (%s):\n", name, unit)
	found := false
	prev := math.NaN()
	for _, f := range files {
		rs, err := loadBaseline(f)
		if err != nil {
			return err
		}
		r, ok := findByName(rs, name)
		v, okUnit := r.Metrics[unit]
		if !ok || !okUnit {
			fmt.Fprintf(w, "  %-20s (absent)\n", f)
			continue
		}
		delta := ""
		if !math.IsNaN(prev) {
			delta = "  (" + deltaString(prev, v) + ")"
		}
		fmt.Fprintf(w, "  %-20s %.4g%s\n", f, v, delta)
		prev = v
		found = true
	}
	if !found {
		return fmt.Errorf("trend: benchmark %q with unit %q in none of %d files", name, unit, len(files))
	}
	return nil
}

// baselineSeq extracts the first integer run in a baseline filename,
// so BENCH_10.json sorts after BENCH_9.json; files without one sort
// first, lexically.
func baselineSeq(path string) int {
	base := filepath.Base(path)
	for i := 0; i < len(base); i++ {
		if base[i] >= '0' && base[i] <= '9' {
			v := 0
			for i < len(base) && base[i] >= '0' && base[i] <= '9' {
				v = v*10 + int(base[i]-'0')
				i++
			}
			return v
		}
	}
	return -1
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

// loadBaseline reads a previously committed BENCH_<pr>.json.
func loadBaseline(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base []result
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

// key identifies a benchmark across runs.
func key(r result) string { return r.Package + " " + r.Name }

// printDeltas writes a per-benchmark comparison of fresh against
// base. ns/op leads (it exists for every benchmark); every other
// shared metric follows. New and vanished benchmarks are listed so a
// renamed benchmark never silently drops out of the trajectory.
func printDeltas(w io.Writer, baseName string, base, fresh []result) {
	baseBy := make(map[string]result, len(base))
	for _, r := range base {
		baseBy[key(r)] = r
	}
	fmt.Fprintf(w, "--- benchmark deltas vs %s (negative ns/op = faster) ---\n", baseName)
	seen := make(map[string]bool, len(fresh))
	for _, r := range fresh {
		seen[key(r)] = true
		b, ok := baseBy[key(r)]
		if !ok {
			fmt.Fprintf(w, "NEW      %-60s %s\n", key(r), metricString(r.Metrics))
			continue
		}
		fmt.Fprintf(w, "%8s %-60s %s\n", deltaString(b.Metrics["ns/op"], r.Metrics["ns/op"]), key(r), deltaDetails(b, r))
	}
	var gone []string
	for _, b := range base {
		if !seen[key(b)] {
			gone = append(gone, key(b))
		}
	}
	sort.Strings(gone)
	for _, k := range gone {
		fmt.Fprintf(w, "VANISHED %s\n", k)
	}
	fmt.Fprintf(w, "--- %d benchmarks compared, %d new, %d vanished ---\n",
		len(fresh)-countNew(baseBy, fresh), countNew(baseBy, fresh), len(gone))
}

func countNew(baseBy map[string]result, fresh []result) int {
	n := 0
	for _, r := range fresh {
		if _, ok := baseBy[key(r)]; !ok {
			n++
		}
	}
	return n
}

// deltaString renders the relative change of a metric, "n/a" when
// either side is missing or zero.
func deltaString(old, new float64) string {
	if old == 0 || new == 0 || math.IsNaN(old) || math.IsNaN(new) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

// deltaDetails renders old→new for every metric the two runs share,
// ns/op first, the rest in sorted order.
func deltaDetails(b, r result) string {
	units := make([]string, 0, len(r.Metrics))
	for u := range r.Metrics {
		if _, ok := b.Metrics[u]; ok && u != "ns/op" {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	parts := []string{fmt.Sprintf("ns/op %.4g→%.4g", b.Metrics["ns/op"], r.Metrics["ns/op"])}
	for _, u := range units {
		parts = append(parts, fmt.Sprintf("%s %.4g→%.4g (%s)", u, b.Metrics[u], r.Metrics[u], deltaString(b.Metrics[u], r.Metrics[u])))
	}
	return strings.Join(parts, "  ")
}

// metricString renders a metrics map compactly, ns/op first.
func metricString(m map[string]float64) string {
	units := make([]string, 0, len(m))
	for u := range m {
		if u != "ns/op" {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	parts := []string{fmt.Sprintf("ns/op %.4g", m["ns/op"])}
	for _, u := range units {
		parts = append(parts, fmt.Sprintf("%s %.4g", u, m[u]))
	}
	return strings.Join(parts, "  ")
}
