package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
pkg: sybilwild/internal/spool
BenchmarkSpoolAppend 	  200000	       388.2 ns/op	        94.44 B/event	         2.576 Mevents/s	       5 B/op	       0 allocs/op
pkg: sybilwild/internal/stream
BenchmarkResumeFromDisk 	  200000	      1229 ns/op	         0.8134 Mevents/s	      51 B/op	       1 allocs/op
Benchmark-not-a-result line that must be skipped
PASS
`

func TestParseBench(t *testing.T) {
	out, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("parsed %d results, want 2", len(out))
	}
	r := out[0]
	if r.Name != "BenchmarkSpoolAppend" {
		t.Fatalf("bad first result: %+v", r)
	}
	if r.Metrics["ns/op"] != 388.2 || r.Metrics["Mevents/s"] != 2.576 || r.Metrics["allocs/op"] != 0 {
		t.Fatalf("bad metrics: %v", r.Metrics)
	}
	if out[1].Name != "BenchmarkResumeFromDisk" {
		t.Fatalf("bad second result: %+v", out[1])
	}
}

func TestCheckGate(t *testing.T) {
	fresh := []result{
		{Name: "BenchmarkPipelineBatch/shards=1-8", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkPipelineBatch/shards=4-8", Metrics: map[string]float64{"ns/op": 105}},
	}
	var sb strings.Builder
	// Within slack: 105 <= 100*1.15 — passes, GOMAXPROCS suffix ignored.
	if err := checkGate(&sb, "BenchmarkPipelineBatch/shards=4<=BenchmarkPipelineBatch/shards=1*1.15", fresh); err != nil {
		t.Fatalf("gate within slack failed: %v", err)
	}
	if !strings.Contains(sb.String(), "gate ok") {
		t.Fatalf("missing gate ok line: %q", sb.String())
	}
	// No slack: 105 > 100 — fails.
	if err := checkGate(&sb, "BenchmarkPipelineBatch/shards=4<=BenchmarkPipelineBatch/shards=1", fresh); err == nil {
		t.Fatal("gate without slack should have failed")
	}
	// Missing benchmark is a hard failure, not a silent pass.
	if err := checkGate(&sb, "BenchmarkRenamed<=BenchmarkPipelineBatch/shards=1", fresh); err == nil {
		t.Fatal("gate with missing benchmark should have failed")
	}
	// Malformed expressions are rejected.
	for _, expr := range []string{"no-operator", "A<=B*zero", "A<=B*-1"} {
		if err := checkGate(&sb, expr, fresh); err == nil {
			t.Fatalf("gate %q should have been rejected", expr)
		}
	}
}

// TestGateComparesMedians: a benchmark repeated in the input (the
// bench-gate loop alternating two sides) is judged by its median
// ns/op, so one repetition over the bound passes and a median over it
// fails.
func TestGateComparesMedians(t *testing.T) {
	const gate = "BenchmarkTree<=BenchmarkFlat*1.3"
	render := func(tree []float64) []result {
		var rs []result
		for i, v := range tree {
			rs = append(rs,
				result{Name: "BenchmarkFlat-2", Metrics: map[string]float64{"ns/op": 100 + float64(i)}},
				result{Name: "BenchmarkTree-2", Metrics: map[string]float64{"ns/op": v}})
		}
		return rs
	}
	var sb strings.Builder
	// One outlier (200 > 1.3 × 102, the flat median): the median of
	// tree, 105, holds.
	if err := checkGate(&sb, gate, render([]float64{105, 200, 104, 106, 103})); err != nil {
		t.Fatalf("one outlier over the bound failed the gate: %v", err)
	}
	// Three of five over the bound: the median, 140, is past 132.6.
	if err := checkGate(&sb, gate, render([]float64{105, 140, 104, 150, 160})); err == nil {
		t.Fatal("a median over the bound passed the gate")
	}
	// An even count takes the mean of the middle two: (130+136)/2 = 133
	// is past 1.3 × 101.5 = 131.95.
	if err := checkGate(&sb, gate, render([]float64{120, 130, 136, 150})); err == nil {
		t.Fatal("an even-count median over the bound passed the gate")
	}
}

// TestEveryGateEvaluated: -gate repeats, and a violated gate fails the
// run without hiding the others — each one is reported.
func TestEveryGateEvaluated(t *testing.T) {
	in := "BenchmarkA-2 1 100 ns/op\nBenchmarkB-2 1 150 ns/op\nBenchmarkC-2 1 400 ns/op\n"
	var stderr strings.Builder
	err := run([]string{
		"-gate", "BenchmarkC<=BenchmarkA*2.0", // 400 > 200: violated
		"-gate", "BenchmarkB<=BenchmarkA*2.0", // 150 <= 200: holds
	}, strings.NewReader(in), &stderr)
	if err == nil {
		t.Fatalf("one violated gate of two must fail the run; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(err.Error(), "1 of 2 gates failed") {
		t.Fatalf("err = %v, want a count of the failed gates", err)
	}
	for _, want := range []string{"gate FAILED: BenchmarkC-2", "gate ok: BenchmarkB-2"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestMakefileGatesArmed holds every -gate line of `make bench-gate`
// to account: for each benchjson invocation in the target, a synthetic
// run where every gate holds passes with one "gate ok" per gate, and a
// run violating any single gate fails naming that gate. A gate that
// benchjson never evaluates, or whose benchmarks the invocation cannot
// tell apart, fails here instead of sitting disarmed in CI.
func TestMakefileGatesArmed(t *testing.T) {
	invocations := benchGateInvocations(t, "../../Makefile")
	n := 0
	for _, gates := range invocations {
		n += len(gates)
	}
	if len(invocations) < 4 || n < 6 {
		t.Fatalf("bench-gate has %d benchjson invocations with %d gates; the Makefile parse is broken", len(invocations), n)
	}
	for _, gates := range invocations {
		args := make([]string, 0, 2*len(gates))
		for _, g := range gates {
			args = append(args, "-gate", g)
		}
		var stderr strings.Builder
		if err := run(args, strings.NewReader(synthBench(t, gates, -1)), &stderr); err != nil {
			t.Fatalf("gates %q fail on a run that satisfies them all: %v\n%s", gates, err, stderr.String())
		}
		if got := strings.Count(stderr.String(), "gate ok:"); got != len(gates) {
			t.Fatalf("gates %q: %d reported ok, want %d:\n%s", gates, got, len(gates), stderr.String())
		}
		for i, g := range gates {
			stderr.Reset()
			if err := run(args, strings.NewReader(synthBench(t, gates, i)), &stderr); err == nil {
				t.Fatalf("gate %q is not armed: violating it passes\n%s", g, stderr.String())
			}
			a, _, _ := strings.Cut(g, "<=")
			if !strings.Contains(stderr.String(), "gate FAILED: "+a) {
				t.Fatalf("gate %q violated but not reported:\n%s", g, stderr.String())
			}
		}
	}
}

// benchGateInvocations returns the -gate expressions of each benchjson
// invocation in the Makefile's bench-gate recipe.
func benchGateInvocations(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "bench-gate:"):
			in = true
		case in && !strings.HasPrefix(line, "\t"):
			return out
		case in && strings.Contains(line, "./cmd/benchjson"):
			out = append(out, nil)
		case in && strings.Contains(line, "-gate '"):
			_, rest, _ := strings.Cut(line, "-gate '")
			expr, _, _ := strings.Cut(rest, "'")
			out[len(out)-1] = append(out[len(out)-1], expr)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// synthBench renders `go test -bench` output naming every benchmark in
// gates, each right-hand side before its left so a name that is a
// -GOMAXPROCS-suffixed variant of another resolves as go test orders
// them. Every gate holds, except gates[violate] (-1: none), whose
// left side is set far past its bound.
func synthBench(t *testing.T, gates []string, violate int) string {
	t.Helper()
	ns := map[string]float64{}
	var order []string
	set := func(name string, v float64) {
		if _, ok := ns[name]; !ok {
			order = append(order, name)
		}
		ns[name] = v
	}
	for i, g := range gates {
		a, rest, ok := strings.Cut(g, "<=")
		b, slack, _ := strings.Cut(rest, "*")
		s, err := strconv.ParseFloat(slack, 64)
		if !ok || err != nil || s < 1 {
			t.Fatalf("gate %q: want 'A<=B*SLACK' with SLACK >= 1", g)
		}
		if _, ok := ns[b]; !ok {
			set(b, 1000)
		}
		v := ns[b]
		if i == violate {
			v = ns[b] * s * 10
		}
		set(a, v)
	}
	var sb strings.Builder
	for _, name := range order {
		fmt.Fprintf(&sb, "%s 1 %g ns/op\n", name, ns[name])
	}
	return sb.String()
}
