package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d, want 8", s.N)
	}
	if s.Mean != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean)
	}
	// Sample std of that classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("Std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Fatalf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileEdges(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if got := Quantile(sorted, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(sorted, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(sorted, 0.5); got != 2.5 {
		t.Fatalf("q0.5 = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty sample")
		}
	}()
	Quantile(nil, 0.5)
}

func TestECDFEval(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return e.Eval(lo) <= e.Eval(hi) && e.Eval(hi) <= 1 && e.Eval(lo) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{5, 1, 3, 2, 4})
	pts := e.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("points not monotone: %+v", pts)
		}
	}
	if pts[len(pts)-1].Y != 100 {
		t.Fatalf("last point Y = %v, want 100", pts[len(pts)-1].Y)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			// Bound magnitudes: linear interpolation between values near
			// ±MaxFloat64 loses enough precision to break the invariant
			// in ways irrelevant to this library's domain.
			if !math.IsNaN(x) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v := e.Quantile(q)
			// CDF at quantile must be at least q (within float fuzz).
			if e.Eval(v)+1e-9 < q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Observe(true, true)
	c.Observe(true, false)
	c.Observe(false, true)
	c.Observe(false, false)
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Fatalf("matrix = %+v", c)
	}
	if c.Accuracy() != 0.5 || c.TPR() != 0.5 || c.FPR() != 0.5 {
		t.Fatalf("rates wrong: %+v", c)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(1)
	c1 := r.Fork()
	c2 := r.Fork()
	same := true
	for i := 0; i < 16; i++ {
		if c1.Int63() != c2.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forked children produced identical streams")
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(7)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Exponential(3)
	}
	mean := sum / float64(n)
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("exponential mean = %v, want ~3", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRand(9)
	for _, mean := range []float64{0.5, 4, 80} {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	r := NewRand(11)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		v := r.Beta(8, 2)
		if v < 0 || v > 1 {
			t.Fatalf("beta out of range: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.8) > 0.02 {
		t.Fatalf("beta(8,2) mean = %v, want ~0.8", mean)
	}
}

func TestZipfRanksBias(t *testing.T) {
	r := NewRand(17)
	next := r.ZipfRanks(1.5, 100)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		k := next()
		if k < 0 || k >= 100 {
			t.Fatalf("rank out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[50] {
		t.Fatalf("zipf not biased toward low ranks: %v %v %v", counts[0], counts[10], counts[50])
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRand(19)
	for _, k := range []int{0, 1, 5, 10, 20} {
		got := SampleWithoutReplacement(r, 10, k)
		wantLen := k
		if k > 10 {
			wantLen = 10
		}
		if len(got) != wantLen {
			t.Fatalf("k=%d: len=%d", k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 10 || seen[v] {
				t.Fatalf("k=%d: bad sample %v", k, got)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	r := NewRand(23)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		for _, v := range SampleWithoutReplacement(r, 10, 3) {
			counts[v]++
		}
	}
	for i, c := range counts {
		frac := float64(c) / 60000
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("index %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "bbbb"}, [][]string{{"xx", "y"}})
	if out == "" {
		t.Fatal("empty table")
	}
	lines := splitLines(out)
	if len(lines) != 3 {
		t.Fatalf("table lines = %d: %q", len(lines), out)
	}
}

func TestAsciiCDFContainsSeries(t *testing.T) {
	out := AsciiCDF(20, 5, 0, 10, map[string]*ECDF{
		"normal": NewECDF([]float64{1, 2, 3}),
		"sybil":  NewECDF([]float64{7, 8, 9}),
	})
	if out == "" {
		t.Fatal("empty plot")
	}
	if !containsRune(out, '*') || !containsRune(out, '+') {
		t.Fatalf("missing series markers: %q", out)
	}
}

func containsRune(s string, r rune) bool {
	for _, c := range s {
		if c == r {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i, c := range s {
		if c == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestQuantileSortedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		q25 := Quantile(xs, 0.25)
		q75 := Quantile(xs, 0.75)
		return q25 <= q75 && q25 >= xs[0] && q75 <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStratifiedFoldsBalanced: every fold holds its round-robin share
// of each class, and a seed fixes the assignment.
func TestStratifiedFoldsBalanced(t *testing.T) {
	const n, k = 103, 5
	positive := func(i int) bool { return i%4 == 0 } // 26 positives, 77 negatives
	fold := StratifiedFolds(NewRand(9), n, k, positive)
	var count [k][2]int
	for i, f := range fold {
		if f < 0 || f >= k {
			t.Fatalf("sample %d in fold %d, want [0, %d)", i, f, k)
		}
		if positive(i) {
			count[f][0]++
		} else {
			count[f][1]++
		}
	}
	for f, c := range count {
		if c[0] < 26/k || c[0] > 26/k+1 || c[1] < 77/k || c[1] > 77/k+1 {
			t.Fatalf("fold %d holds %d positives and %d negatives: not stratified", f, c[0], c[1])
		}
	}
	again := StratifiedFolds(NewRand(9), n, k, positive)
	for i := range fold {
		if fold[i] != again[i] {
			t.Fatalf("sample %d: fold %d, then %d with the same seed", i, fold[i], again[i])
		}
	}
}

// TestCrossValidateTestsEachSampleOnce: every sample is scored exactly
// once, by a fit that never trained on it, and a perfect predictor
// yields a perfect matrix.
func TestCrossValidateTestsEachSampleOnce(t *testing.T) {
	const n, k = 103, 5
	positive := func(i int) bool { return i%4 == 0 }
	var trained [n]int
	c := CrossValidate(NewRand(9), n, k, positive, func(train []int) func(int) bool {
		in := make(map[int]bool, len(train))
		for _, i := range train {
			in[i] = true
			trained[i]++
		}
		return func(i int) bool {
			if in[i] {
				t.Fatalf("sample %d scored by a fit that trained on it", i)
			}
			return positive(i)
		}
	})
	if c.TP != 26 || c.TN != 77 || c.FP != 0 || c.FN != 0 {
		t.Fatalf("matrix %+v, want every one of the %d samples scored once, correctly", c, n)
	}
	for i, m := range trained {
		if m != k-1 {
			t.Fatalf("sample %d trained on %d times, want %d", i, m, k-1)
		}
	}
}
