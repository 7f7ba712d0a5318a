package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Calibration runs sets × runsPerSet timed runs of every workload, each
// as its own process (peak RSS and set-up time are per process) and
// each on another seed. The workloads take turns inside a set, so
// machine drift lands on all of them alike.
const (
	calibrationSets = 3
	runsPerSet      = 4
)

// runCalibration prints, per metric and workload, each set's median,
// the widest gap between two sets' medians and the interquartile
// spread over all runs, both as shares of the overall median. A bound
// in BENCHMARK.json must be at least twice the gap seen here.
func runCalibration(seed int64, seconds int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sybilbench:", err)
		return 1
	}
	// A signal cancels the context, which kills the run in progress;
	// every child is waited for before this function returns.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// values[workload][metric][set] holds that set's runs.
	values := make(map[string]map[string][][]float64)
	var order []string
	units := make(map[string]string)
	for set := 0; set < calibrationSets; set++ {
		for run := 0; run < runsPerSet; run++ {
			for _, wl := range workloads {
				s := seed + int64(set*runsPerSet+run)
				cmd := exec.CommandContext(ctx, exe, "-workload", wl.name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.Itoa(seconds), "-out", out)
				stdout, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "sybilbench: calibration run of %s (seed %d) failed: %v\n", wl.name, s, err)
					return 1
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var rp report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rp); err != nil {
					fmt.Fprintf(os.Stderr, "sybilbench: calibration run of %s printed no result: %v\n", wl.name, err)
					return 1
				}
				if values[wl.name] == nil {
					values[wl.name] = make(map[string][][]float64)
				}
				for name, m := range rp.Metrics {
					if values[wl.name][name] == nil {
						values[wl.name][name] = make([][]float64, calibrationSets)
					}
					values[wl.name][name][set] = append(values[wl.name][name][set], m.Value)
					if _, ok := units[name]; !ok {
						units[name] = m.Unit
						order = append(order, name)
					}
				}
				fmt.Fprintf(os.Stderr, "sybilbench: set %d run %d %s done\n", set+1, run+1, wl.name)
			}
		}
	}
	sort.Strings(order)

	fmt.Printf("| metric | workload | unit | set 1 | set 2 | set 3 | widest gap | spread (IQR/median, %d runs) |\n", calibrationSets*runsPerSet)
	fmt.Println("| --- | --- | --- | --- | --- | --- | --- | --- |")
	for _, name := range order {
		for _, wl := range workloads {
			sets := values[wl.name][name]
			var all, meds []float64
			for _, s := range sets {
				all = append(all, s...)
				meds = append(meds, median(s))
			}
			sort.Float64s(meds)
			mid := median(all)
			q1, q3 := quartiles(all)
			fmt.Printf("| `%s` | %s | %s | %.5g | %.5g | %.5g | %.1f%% | %.1f%% |\n",
				name, wl.name, units[name], median(sets[0]), median(sets[1]), median(sets[2]),
				100*(meds[len(meds)-1]-meds[0])/mid, 100*(q3-q1)/mid)
		}
	}
	return 0
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the benchmark's driver measures spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return s[j-1] + (s[j]-s[j-1])*delta/4
	}
	return at(1), at(3)
}
