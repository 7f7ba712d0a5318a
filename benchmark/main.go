// Command sybilbench is the repository's benchmark: four workloads over
// one generated Sybil campaign, each run as a fixed number of identical
// repetitions inside a single process. See README.md in this directory
// for the metric glossary, the workload rationale and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sybilwild/internal/detector"
)

// workload is one set of inputs the benchmark runs (BENCHMARK.json and
// the README say why each was chosen). reps is the number of measured
// repetitions of a 20-second run; it is fixed, never derived from a
// clock, so two runs of one commit do the same work.
type workload struct {
	name string
	reps int
}

var workloads = []workload{
	{"campaign-saturate", 10},
	{"campaign-paced", 4},
	{"catchup-replay", 16},
	{"detector-direct", 40},
}

const defaultSeconds = 20

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what a run prints last: one JSON object on one line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	processStart := time.Now()
	var (
		name      = flag.String("workload", "campaign-saturate", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 7, "seed of the generated campaign")
		seconds   = flag.Int("seconds", defaultSeconds, "nominal measuring time; scales the fixed repetition counts")
		trace     = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
		out       = flag.String("out", filepath.Join("benchmark", "out"), "directory for spools and trace files")
		calibrate = flag.Bool("calibrate", false, "run 3 interleaved sets of every workload and print the noise table")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "sybilbench: bad arguments")
		flag.Usage()
		return 2
	}
	if *calibrate {
		return runCalibration(*seed, *seconds, *out)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "sybilbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}

	// Two load threads at most, whatever the box offers.
	runtime.GOMAXPROCS(2)

	dir, err := scratchDir(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sybilbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// A default run takes 15-30 s and a slow moment of the box doubles
	// that; past the limit something hangs, and the driver allows 180 s.
	limit := time.Duration(80+2**seconds) * time.Second
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	guard(dir, limit)

	h := &harness{rule: detector.PaperRule(), dir: dir, epoch: processStart}
	h.feed = newFeed(*seed, defaultAccounts, h.rule)
	fmt.Fprintf(os.Stderr, "sybilbench: %s seed=%d: %d events, %d accounts, oracle flags %d at %.0f ev/s; spools on %s (%s)\n",
		wl.name, *seed, len(h.feed.events), h.feed.accounts, h.feed.expected, h.feed.oracleEvps, dir, fsName(dir))
	if h.feed.expected == 0 {
		fmt.Fprintln(os.Stderr, "sybilbench: the oracle flagged nothing; the correctness gate would be vacuous")
		return 1
	}

	runRep, warmup, err := h.prepare(wl.name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sybilbench: set-up:", err)
		return 1
	}
	reps := (wl.reps**seconds + defaultSeconds/2) / defaultSeconds
	if reps < 2 {
		reps = 2
	}

	var rep report
	if *trace == 1 {
		rep = h.tracedRun(wl.name, runRep, warmup, reps, *out)
	} else {
		rep = h.timedRun(runRep, warmup, reps)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sybilbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// prepare does the workload-specific part of set-up and returns the
// function that runs one repetition, plus the one that warms up.
func (h *harness) prepare(name string) (runRep, warmup func(*tracer) rep, err error) {
	switch name {
	case "campaign-saturate":
		runRep = func(tr *tracer) rep { return h.campaign(stageIngest, 0, tr) }
	case "campaign-paced":
		runRep = func(tr *tracer) rep { return h.campaign(stageIngest, pacedRate, tr) }
		// Warming up needs the code paths and the heap, not the
		// schedule: the closed loop covers both in a third of the time.
		warmup = func(tr *tracer) rep { return h.campaign(stageIngest, 0, tr) }
	case "catchup-replay":
		spoolDir := filepath.Join(h.dir, "prefilled")
		if err := h.prefill(spoolDir); err != nil {
			return nil, nil, fmt.Errorf("prefill: %w", err)
		}
		runRep = func(tr *tracer) rep { return h.replay(spoolDir, tr) }
	case "detector-direct":
		evs, idx := h.feed.partitionSlices()
		runRep = func(tr *tracer) rep { return h.direct(evs, idx, tr) }
	}
	if warmup == nil {
		warmup = runRep
	}
	return runRep, warmup, nil
}

// tally folds repetitions into the report's attempted/failed counts
// and prints what went wrong.
func (rp *report) tally(reps ...rep) {
	for _, r := range reps {
		rp.Attempted += r.attempted
		rp.Failed += r.failed
		for _, n := range r.notes {
			fmt.Fprintln(os.Stderr, "sybilbench: FAILED:", n)
		}
	}
	rp.Correct = rp.Failed == 0 && rp.Attempted > 0
}

func (rp *report) set(ms []metric) {
	if rp.Metrics == nil {
		rp.Metrics = make(map[string]metricValue)
	}
	for _, m := range ms {
		// JSON has no NaN or Inf; a metric that came out as one is a
		// harness bug worth seeing, not worth dying on.
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "sybilbench: metric %s is %v, reporting 0\n", m.name, m.value)
			m.value = 0
		}
		rp.Metrics[m.name] = metricValue{m.value, m.unit}
		fmt.Printf("%-46s %16s %s\n", m.name, strconv.FormatFloat(m.value, 'f', -1, 64), m.unit)
	}
}

// figures are the timing results of a set of repetitions.
type figures struct {
	evps       float64   // feed events per second of wall time
	cpuNsPerEv float64   // process CPU time per feed event
	allocPerEv float64   // bytes allocated per feed event
	lagP50Ms   float64   // median flag lag of one repetition
	lags       []float64 // every repetition's flag lags, ascending
}

// best reduces repetitions to the best value each metric reached in
// any of them. Not the median: this box shares its memory system with
// neighbours whose load comes and goes over minutes and slows a
// repetition by up to half, so the median of a run follows the
// neighbours, while the best repetition of a run is the one they
// disturbed least and repeats to a few percent (see README).
func (h *harness) best(reps []rep) figures {
	n := float64(len(h.feed.events))
	f := figures{cpuNsPerEv: math.Inf(1), allocPerEv: math.Inf(1), lagP50Ms: math.Inf(1)}
	for _, r := range reps {
		f.evps = math.Max(f.evps, n/(float64(r.wallNs)/1e9))
		f.cpuNsPerEv = math.Min(f.cpuNsPerEv, float64(r.cpuNs)/n)
		f.allocPerEv = math.Min(f.allocPerEv, float64(r.allocBytes)/n)
		if len(r.lagsMs) > 0 {
			f.lagP50Ms = math.Min(f.lagP50Ms, median(r.lagsMs))
		}
		f.lags = append(f.lags, r.lagsMs...)
	}
	sort.Float64s(f.lags)
	return f
}

// timedRun is the untraced run behind the end-to-end metrics: one
// warm-up repetition, then reps measured ones, reduced by best.
func (h *harness) timedRun(runRep, warmup func(*tracer) rep, reps int) report {
	var rp report
	rp.tally(warmup(nil))
	setup := time.Since(h.epoch).Seconds() // the epoch is the process start
	measured := make([]rep, reps)
	for i := range measured {
		measured[i] = runRep(nil)
	}
	rp.tally(measured...)
	f := h.best(measured)
	rp.set([]metric{
		{"setup_s", setup, "s"},
		{"throughput_evps", f.evps, "ev/s"},
		{"cpu_ns_per_ev", f.cpuNsPerEv, "ns/ev"},
		{"alloc_bytes_per_ev", f.allocPerEv, "B/ev"},
		{"peak_rss_mb", peakRSSMB(), "MiB"},
		{"flag_lag_p50_ms", f.lagP50Ms, "ms"},
	})
	return rp
}

// scratchDir makes this process's scratch directory under out, after
// sweeping those of processes that no longer exist.
func scratchDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	stale, _ := filepath.Glob(filepath.Join(out, "sybilbench-*"))
	for _, d := range stale {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(d), "sybilbench-"))
		if err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid))); err != nil {
			os.RemoveAll(d)
		}
	}
	dir, err := filepath.Abs(filepath.Join(out, "sybilbench-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// guard makes sure the process cannot outlive its welcome: a signal
// ends it at once, and a run that is still going after limit dumps its
// goroutines and exits 3. Both paths remove the scratch directory.
func guard(dir string, limit time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintln(os.Stderr, "sybilbench:", s)
		os.RemoveAll(dir)
		os.Exit(130)
	}()
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "sybilbench: watchdog: still running after %v\n", limit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.RemoveAll(dir)
		os.Exit(3)
	})
}

// fsName names the filesystem holding dir, for the record: spool
// timings on a disk and on tmpfs are not comparable.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs type %#x", uint32(st.Type))
}
