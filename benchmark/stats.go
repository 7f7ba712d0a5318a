package main

import (
	"sort"
	"syscall"

	"sybilwild/internal/stats"
)

// quantile is stats.Quantile over an ascending slice, 0 when it is
// empty (a repetition that fired no flag has no lag to report).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return stats.Quantile(sorted, q)
}

// median returns the median of xs in any order; xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// supportedPercentile returns the highest percentile of the ladder
// 50, 90, 99, 99.9, 99.99 that still has at least ten of n samples
// beyond it; a tail percentile read off fewer samples than that is one
// or two outliers, not a distribution. It returns 0 when even the
// median has fewer than ten samples above it.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// tailPercentile reads the want-th percentile off an ascending slice,
// stepping down to the highest percentile the sample count supports.
func tailPercentile(sorted []float64, want float64) float64 {
	if p := supportedPercentile(len(sorted)); p < want {
		want = p
	}
	if want == 0 {
		want = 0.5
	}
	return quantile(sorted, want)
}

// cpuNs returns the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns the process's high-water resident set in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
