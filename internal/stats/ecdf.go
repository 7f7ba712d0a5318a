package stats

import (
	"fmt"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution function over a sample.
// The zero value is unusable; build one with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Eval returns P(X ≤ x), i.e. the fraction of the sample at most x.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the sample.
func (e *ECDF) Quantile(q float64) float64 { return Quantile(e.sorted, q) }

// Point is one (x, cumulative-percent) coordinate of a CDF series, as
// plotted in the paper's figures (y in percent, 0–100).
type Point struct {
	X float64
	Y float64
}

// Points returns n evenly spaced (by rank) CDF points suitable for
// plotting or for the experiment harness to print as a series.
func (e *ECDF) Points(n int) []Point {
	if len(e.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(e.sorted) {
		n = len(e.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		// Rank positions spread across the full sample.
		idx := i * (len(e.sorted) - 1) / max(n-1, 1)
		pts = append(pts, Point{
			X: e.sorted[idx],
			Y: 100 * float64(idx+1) / float64(len(e.sorted)),
		})
	}
	return pts
}

// AsciiCDF renders one or more named CDF series as a fixed-size ASCII
// plot, x spanning [xmin, xmax]. It is intentionally rough — the
// experiment harness uses it so humans can eyeball the same shapes the
// paper's figures show.
func AsciiCDF(width, height int, xmin, xmax float64, series map[string]*ECDF) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', '+', 'o', 'x', '#', '@'}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for si, name := range names {
		e := series[name]
		m := markers[si%len(markers)]
		for col := 0; col < width; col++ {
			x := xmin + (xmax-xmin)*float64(col)/float64(width-1)
			y := e.Eval(x) // 0..1
			row := height - 1 - int(y*float64(height-1)+0.5)
			if row >= 0 && row < height {
				grid[row][col] = m
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CDF (y: 0..100%%, x: %.3g..%.3g)\n", xmin, xmax)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	for si, name := range names {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], name)
	}
	return b.String()
}
