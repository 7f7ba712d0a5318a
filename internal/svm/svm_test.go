package svm

import (
	"fmt"
	"math"
	"testing"

	"sybilwild/internal/stats"
)

// blobs returns two Gaussian blobs labelled ±1.
func blobs(r *stats.Rand, n int, sep float64) ([][]float64, []float64) {
	var x [][]float64
	var y []float64
	for i := 0; i < n; i++ {
		x = append(x, []float64{r.NormFloat64() + sep, r.NormFloat64() + sep})
		y = append(y, 1)
		x = append(x, []float64{r.NormFloat64() - sep, r.NormFloat64() - sep})
		y = append(y, -1)
	}
	return x, y
}

func TestLinearSeparable(t *testing.T) {
	r := stats.NewRand(1)
	x, y := blobs(r, 100, 3)
	cfg := DefaultConfig()
	cfg.Kernel = Linear{}
	m := Train(x, y, cfg)
	errs := 0
	for i := range x {
		if m.Classify(x[i]) != (y[i] > 0) {
			errs++
		}
	}
	if errs > 2 {
		t.Fatalf("training errors = %d on separable blobs", errs)
	}
	if len(m.x) == 0 || len(m.x) == len(x) {
		t.Fatalf("support vectors = %d of %d", len(m.x), len(x))
	}
}

func TestRBFNonlinear(t *testing.T) {
	// XOR-like problem: linear fails, RBF succeeds.
	r := stats.NewRand(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := r.Float64()*2 - 1
		b := r.Float64()*2 - 1
		x = append(x, []float64{a, b})
		if (a > 0) == (b > 0) {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	cfg := DefaultConfig()
	cfg.Kernel = RBF{Gamma: 2}
	cfg.MaxIter = 400
	m := Train(x, y, cfg)
	errs := 0
	for i := range x {
		if m.Classify(x[i]) != (y[i] > 0) {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(x)); frac > 0.08 {
		t.Fatalf("RBF error rate = %.3f on XOR", frac)
	}
}

func TestLinearFailsOnXOR(t *testing.T) {
	// Sanity: the problem above is genuinely nonlinear.
	r := stats.NewRand(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := r.Float64()*2 - 1
		b := r.Float64()*2 - 1
		x = append(x, []float64{a, b})
		if (a > 0) == (b > 0) {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	cfg := DefaultConfig()
	cfg.Kernel = Linear{}
	m := Train(x, y, cfg)
	errs := 0
	for i := range x {
		if m.Classify(x[i]) != (y[i] > 0) {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(x)); frac < 0.25 {
		t.Fatalf("linear kernel 'solved' XOR (%.3f error); test is broken", frac)
	}
}

// Poly is the polynomial kernel (a·b + c)^d: a Kernel the package does
// not ship, so the tests also train through a caller-defined kernel.
type Poly struct {
	Degree int
	Coef   float64
}

func (k Poly) Eval(a, b []float64) float64 {
	return math.Pow(dot(a, b)+k.Coef, float64(k.Degree))
}

func (k Poly) String() string { return fmt.Sprintf("poly(d=%d,c=%g)", k.Degree, k.Coef) }

func TestKernels(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, -1}
	if got := (Linear{}).Eval(a, b); got != 1 {
		t.Fatalf("linear = %v", got)
	}
	if got := (Poly{Degree: 2, Coef: 1}).Eval(a, b); got != 4 {
		t.Fatalf("poly = %v", got)
	}
	rbf := RBF{Gamma: 0.5}
	if got := rbf.Eval(a, a); got != 1 {
		t.Fatalf("rbf self = %v", got)
	}
	want := math.Exp(-0.5 * (4 + 9))
	if got := rbf.Eval(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("rbf = %v, want %v", got, want)
	}
	for _, k := range []Kernel{Linear{}, rbf, Poly{Degree: 3}} {
		if k.String() == "" {
			t.Fatal("kernel has empty name")
		}
	}
}

func TestTrainValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad labels")
		}
	}()
	Train([][]float64{{1}}, []float64{2}, DefaultConfig())
}

func TestTrainEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty input")
		}
	}()
	Train(nil, nil, DefaultConfig())
}

func TestScaler(t *testing.T) {
	x := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s := FitScaler(x)
	if s.Mean[0] != 3 || s.Mean[1] != 10 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Std[1] != 1 {
		t.Fatalf("constant feature std should default to 1, got %v", s.Std[1])
	}
	tx := s.Transform(x)
	if math.Abs(tx[0][0]+tx[2][0]) > 1e-12 {
		t.Fatalf("standardization not symmetric: %v", tx)
	}
	if tx[0][1] != 0 {
		t.Fatalf("constant feature should map to 0: %v", tx[0][1])
	}
}

func TestScalerEmpty(t *testing.T) {
	s := FitScaler(nil)
	if len(s.Mean) != 0 {
		t.Fatal("empty scaler has dims")
	}
}

func TestCrossValidateAccuracy(t *testing.T) {
	r := stats.NewRand(3)
	x, y := blobs(r, 200, 2.5)
	c := CrossValidate(x, y, 5, DefaultConfig())
	if c.Accuracy() < 0.97 {
		t.Fatalf("CV accuracy = %.3f on well-separated blobs", c.Accuracy())
	}
	total := c.TP + c.TN + c.FP + c.FN
	if total != len(x) {
		t.Fatalf("CV covered %d samples, want %d (each exactly once)", total, len(x))
	}
}

func TestCrossValidateStratified(t *testing.T) {
	// Heavily imbalanced data: stratification must keep both classes in
	// every fold, or some folds would be single-class and unlearnable.
	r := stats.NewRand(4)
	var x [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		x = append(x, []float64{5 + r.NormFloat64()*0.1})
		y = append(y, 1)
	}
	for i := 0; i < 90; i++ {
		x = append(x, []float64{-5 + r.NormFloat64()*0.1})
		y = append(y, -1)
	}
	c := CrossValidate(x, y, 5, DefaultConfig())
	if c.TP != 10 {
		t.Fatalf("minority class TP = %d of 10", c.TP)
	}
}

func TestDeterministicTraining(t *testing.T) {
	r := stats.NewRand(6)
	x, y := blobs(r, 60, 2)
	m1 := Train(x, y, DefaultConfig())
	m2 := Train(x, y, DefaultConfig())
	if len(m1.x) != len(m2.x) || m1.b != m2.b {
		t.Fatal("training not deterministic")
	}
}

func TestPolyKernelTraining(t *testing.T) {
	// A circular boundary: poly degree 2 separates it, linear cannot.
	r := stats.NewRand(7)
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a := r.NormFloat64()
		b := r.NormFloat64()
		x = append(x, []float64{a, b})
		if a*a+b*b < 1 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	cfg := DefaultConfig()
	cfg.Kernel = Poly{Degree: 2, Coef: 1}
	cfg.MaxIter = 400
	m := Train(x, y, cfg)
	errs := 0
	for i := range x {
		if m.Classify(x[i]) != (y[i] > 0) {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(x)); frac > 0.1 {
		t.Fatalf("poly kernel error rate = %.3f on circle", frac)
	}
}

func TestDecisionSignMatchesClassify(t *testing.T) {
	r := stats.NewRand(8)
	x, y := blobs(r, 50, 2)
	m := Train(x, y, DefaultConfig())
	for i := range x {
		if (m.Decision(x[i]) >= 0) != m.Classify(x[i]) {
			t.Fatal("Decision and Classify disagree")
		}
	}
}
