package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"sybilwild/internal/detector"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

const smokeAccounts = 5000

func smokeHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{rule: detector.PaperRule(), dir: t.TempDir(), epoch: time.Now()}
	h.feed = newFeed(7, smokeAccounts, h.rule)
	if h.feed.expected != smokeAccounts/sybilEvery {
		t.Fatalf("oracle flagged %d accounts, feed has %d Sybils", h.feed.expected, smokeAccounts/sybilEvery)
	}
	return h
}

func TestFeedDeterministic(t *testing.T) {
	a, b := generate(7, smokeAccounts), generate(7, smokeAccounts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different feeds")
	}
	if reflect.DeepEqual(a, generate(8, smokeAccounts)) {
		t.Fatal("different seeds gave the same feed")
	}
	// (actor, at) must name a friend request uniquely: that is how a
	// flag is traced back to its trigger event.
	type key struct {
		actor osn.AccountID
		at    sim.Time
	}
	seen := make(map[key]bool)
	for _, ev := range a {
		if ev.Type != osn.EvFriendRequest {
			continue
		}
		k := key{ev.Actor, ev.At}
		if seen[k] {
			t.Fatalf("account %d sends two requests at tick %d", ev.Actor, ev.At)
		}
		seen[k] = true
	}
}

// TestTriggersMatchMonitor checks the trigger indices against the
// serial reference detector fed one event at a time, its hook firing
// synchronously inside the Observe of the trigger event.
func TestTriggersMatchMonitor(t *testing.T) {
	h := smokeHarness(t)
	f := h.feed
	g := graph.New(f.accounts)
	g.AddNodes(f.accounts)
	want := make(map[osn.AccountID]int32)
	cur := int32(0)
	m := detector.NewMonitor(h.rule, g, func(id osn.AccountID, _ sim.Time) { want[id] = cur })
	for i, ev := range f.events {
		if ev.Type == osn.EvFriendAccept {
			g.AddEdge(ev.Actor, ev.Target, ev.At)
		}
		cur = int32(i)
		m.Observe(ev)
	}
	if len(want) != f.expected {
		t.Fatalf("monitor flagged %d accounts, oracle %d", len(want), f.expected)
	}
	for id, idx := range want {
		if f.trigger[id] != idx {
			t.Fatalf("account %d: trigger index %d, monitor flagged it on event %d", id, f.trigger[id], idx)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {6000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := median(xs); got != 100.5 {
		t.Errorf("median of 1..200 = %v, want 100.5", got)
	}
	// 200 samples support the 90th percentile, not the 99th.
	if got := tailPercentile(xs, 0.99); math.Abs(got-180.1) > 1e-9 {
		t.Errorf("tailPercentile(1..200, 0.99) = %v, want the 90th percentile 180.1", got)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25 as Python's statistics.quantiles gives", q1, q3)
	}
}

// TestSmokeAllWorkloads runs every workload once on a small campaign:
// nothing may fail, and the credit window must hold.
func TestSmokeAllWorkloads(t *testing.T) {
	h := smokeHarness(t)
	for _, wl := range workloads {
		runRep, _, err := h.prepare(wl.name)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		r := runRep(nil)
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: failed %d of %d attempted: %v", wl.name, r.failed, r.attempted, r.notes)
		}
		if len(r.lagsMs) != h.feed.expected {
			t.Errorf("%s: %d flag-lag samples, want %d", wl.name, len(r.lagsMs), h.feed.expected)
		}
		if wl.name == "campaign-saturate" {
			if r.maxInflight > inflightCap || r.maxInflight < inflightCap-chunkSize {
				t.Errorf("credit window peaked at %d events in flight, want just under the cap of %d", r.maxInflight, inflightCap)
			}
		}
	}
}

// TestBenchmarkJSON holds the metric lists in ../BENCHMARK.json to
// what a timed and a traced run actually print.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, wl.name)
		}
	}

	h := &harness{rule: detector.PaperRule(), dir: t.TempDir(), epoch: time.Now()}
	h.feed = newFeed(7, 1000, h.rule)
	runRep, warmup, err := h.prepare("campaign-saturate")
	if err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, want []listed, rp report) {
		t.Helper()
		if !rp.Correct {
			t.Errorf("%s run was not correct: %d of %d failed", kind, rp.Failed, rp.Attempted)
		}
		var got, exp []string
		for name, m := range rp.Metrics {
			got = append(got, name+" "+m.Unit)
			if math.IsNaN(m.Value) {
				t.Errorf("%s is NaN", name)
			}
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\nprinted %v\nlisted  %v", kind, got, exp)
		}
	}
	compare("timed", spec.EndToEnd, h.timedRun(runRep, warmup, 2))
	compare("traced", spec.PerLayer, h.tracedRun(workloads[0].name, runRep, warmup, 2, t.TempDir()))
}
