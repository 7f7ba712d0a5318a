package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
	if r.Package != "sybilwild/internal/spool" || r.Name != "BenchmarkSpoolAppend" || r.Iterations != 200000 {
		t.Fatalf("bad first result: %+v", r)
	}
	if r.Metrics["ns/op"] != 388.2 || r.Metrics["Mevents/s"] != 2.576 || r.Metrics["allocs/op"] != 0 {
		t.Fatalf("bad metrics: %v", r.Metrics)
	}
	if out[1].Package != "sybilwild/internal/stream" {
		t.Fatalf("pkg tracking broken: %+v", out[1])
	}
}

func TestPrintDeltas(t *testing.T) {
	base := []result{
		{Package: "p", Name: "BenchmarkKept", Metrics: map[string]float64{"ns/op": 100, "Mevents/s": 2}},
		{Package: "p", Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 50}},
	}
	fresh := []result{
		{Package: "p", Name: "BenchmarkKept", Metrics: map[string]float64{"ns/op": 80, "Mevents/s": 2.5}},
		{Package: "p", Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 10}},
	}
	var sb strings.Builder
	printDeltas(&sb, "BENCH_3.json", base, fresh)
	got := sb.String()
	for _, want := range []string{
		"-20.0%",          // kept benchmark sped up 100→80
		"p BenchmarkKept", //
		"ns/op 100→80",    // old→new detail
		"Mevents/s 2→2.5", // custom metrics compared too
		"NEW      p BenchmarkNew",
		"VANISHED p BenchmarkGone",
		"1 benchmarks compared, 1 new, 1 vanished",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("delta output missing %q:\n%s", want, got)
		}
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

// TestEveryGateEvaluated: -gate repeats, and a violated gate fails the
// run without hiding the others — each one is reported.
func TestEveryGateEvaluated(t *testing.T) {
	in := "BenchmarkA-2 1 100 ns/op\nBenchmarkB-2 1 150 ns/op\nBenchmarkC-2 1 400 ns/op\n"
	var stdout, stderr strings.Builder
	err := run([]string{
		"-gate", "BenchmarkC<=BenchmarkA*2.0", // 400 > 200: violated
		"-gate", "BenchmarkB<=BenchmarkA*2.0", // 150 <= 200: holds
	}, strings.NewReader(in), &stdout, &stderr)
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
	var rs []result
	if err := json.Unmarshal([]byte(stdout.String()), &rs); err != nil || len(rs) != 3 {
		t.Fatalf("stdout is not the 3-result JSON array (%v):\n%s", err, stdout.String())
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
		if err := run(args, strings.NewReader(synthBench(t, gates, -1)), &strings.Builder{}, &stderr); err != nil {
			t.Fatalf("gates %q fail on a run that satisfies them all: %v\n%s", gates, err, stderr.String())
		}
		if got := strings.Count(stderr.String(), "gate ok:"); got != len(gates) {
			t.Fatalf("gates %q: %d reported ok, want %d:\n%s", gates, got, len(gates), stderr.String())
		}
		for i, g := range gates {
			stderr.Reset()
			if err := run(args, strings.NewReader(synthBench(t, gates, i)), &strings.Builder{}, &stderr); err == nil {
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

func TestPrintTrend(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rs []result) string {
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Passed deliberately out of order, and with BENCH_10 to prove
	// numeric (not lexical) ordering; the benchmark is missing from the
	// oldest file (born mid-history) and carries a GOMAXPROCS suffix in
	// the newest.
	files := []string{
		write("BENCH_10.json", []result{{Name: "BenchmarkFanout/subs=16-4",
			Metrics: map[string]float64{"ns/op": 50, "Mevents/s": 4}}}),
		write("BENCH_2.json", []result{{Name: "BenchmarkOther",
			Metrics: map[string]float64{"ns/op": 1}}}),
		write("BENCH_9.json", []result{{Name: "BenchmarkFanout/subs=16",
			Metrics: map[string]float64{"ns/op": 100, "Mevents/s": 2}}}),
	}
	var sb strings.Builder
	if err := printTrend(&sb, "BenchmarkFanout/subs=16", files); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"trend of BenchmarkFanout/subs=16 (ns/op)",
		"BENCH_2.json",
		"(absent)",
		"100",
		"50  (-50.0%)", // delta vs the previous file it appeared in
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("trend output missing %q:\n%s", want, got)
		}
	}
	// BENCH_9 must precede BENCH_10 (numeric, not lexical, order).
	if i9, i10 := strings.Index(got, "BENCH_9.json"), strings.Index(got, "BENCH_10.json"); i9 > i10 {
		t.Fatalf("files not in numeric order:\n%s", got)
	}

	// Explicit unit selects a custom metric.
	sb.Reset()
	if err := printTrend(&sb, "BenchmarkFanout/subs=16:Mevents/s", files); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); !strings.Contains(got, "(Mevents/s)") || !strings.Contains(got, "(+100.0%)") {
		t.Fatalf("unit trend output wrong:\n%s", got)
	}

	// A benchmark in no file is an error, not an empty trajectory.
	if err := printTrend(&sb, "BenchmarkTypo", files); err == nil {
		t.Fatal("trend of a missing benchmark should have failed")
	}
	if err := printTrend(&sb, "BenchmarkFanout/subs=16", nil); err == nil {
		t.Fatal("trend with no files should have failed")
	}
}

func TestBaselineSeq(t *testing.T) {
	for _, tc := range []struct {
		path string
		want int
	}{
		{"BENCH_7.json", 7},
		{"BENCH_10.json", 10},
		{"/some/dir/BENCH_12.json", 12},
		{"BENCH.json", -1},
	} {
		if got := baselineSeq(tc.path); got != tc.want {
			t.Fatalf("baselineSeq(%q) = %d, want %d", tc.path, got, tc.want)
		}
	}
}

func TestDeltaStringEdges(t *testing.T) {
	if got := deltaString(0, 5); got != "n/a" {
		t.Fatalf("zero baseline: %q, want n/a", got)
	}
	if got := deltaString(200, 100); got != "-50.0%" {
		t.Fatalf("halving: %q, want -50.0%%", got)
	}
	if got := deltaString(100, 103); got != "+3.0%" {
		t.Fatalf("+3%%: %q", got)
	}
}
