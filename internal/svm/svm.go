// Package svm implements a from-scratch support vector machine
// (sequential minimal optimization, Platt's algorithm in the
// simplified form) with linear, RBF and polynomial kernels, feature
// standardization, and stratified k-fold cross-validation.
//
// The paper trains an SVM on its 1,000+1,000 ground-truth accounts and
// reports ~99% accuracy for both classes (Table 1); at that scale this
// implementation trains in well under a second, which is the point the
// paper then makes — the expensive classifier buys nothing over
// thresholds.
package svm

import (
	"fmt"
	"math"

	"sybilwild/internal/stats"
)

// Kernel computes inner products in feature space.
type Kernel interface {
	Eval(a, b []float64) float64
	String() string
}

// Linear is the standard dot-product kernel.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(a, b []float64) float64 { return dot(a, b) }

// String implements Kernel.
func (Linear) String() string { return "linear" }

// RBF is the Gaussian radial basis kernel exp(-γ‖a-b‖²).
type RBF struct{ Gamma float64 }

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

// String implements Kernel.
func (k RBF) String() string { return fmt.Sprintf("rbf(γ=%g)", k.Gamma) }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Config holds training hyperparameters.
type Config struct {
	C         float64 // soft-margin penalty
	Tol       float64 // KKT violation tolerance
	MaxPasses int     // passes without change before stopping
	MaxIter   int     // hard iteration cap
	Kernel    Kernel
	Seed      int64
}

// DefaultConfig returns hyperparameters that work well on the
// standardized Sybil feature space.
func DefaultConfig() Config {
	return Config{C: 10, Tol: 1e-3, MaxPasses: 8, MaxIter: 200, Kernel: RBF{Gamma: 0.5}, Seed: 1}
}

// Model is a trained SVM.
type Model struct {
	kernel Kernel
	x      [][]float64 // support vectors
	y      []float64   // labels of support vectors (±1)
	alpha  []float64
	b      float64
}

// Train fits an SVM on x (rows = samples) with labels y ∈ {+1, -1}
// using simplified SMO. It panics on shape mismatches or labels
// outside {+1, -1}.
func Train(x [][]float64, y []float64, cfg Config) *Model {
	n := len(x)
	if n == 0 || len(y) != n {
		panic("svm: bad training shapes")
	}
	for _, v := range y {
		if v != 1 && v != -1 {
			panic("svm: labels must be ±1")
		}
	}
	if cfg.Kernel == nil {
		cfg.Kernel = Linear{}
	}
	r := stats.NewRand(cfg.Seed)

	alpha := make([]float64, n)
	b := 0.0
	// Precompute the kernel matrix: ground-truth-scale problems
	// (n ≈ 2000) fit easily, and SMO touches entries many times.
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := cfg.Kernel.Eval(x[i], x[j])
			k[i][j] = v
			k[j][i] = v
		}
	}
	f := func(i int) float64 {
		s := b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * y[j] * k[i][j]
			}
		}
		return s
	}

	passes := 0
	iter := 0
	for passes < cfg.MaxPasses && iter < cfg.MaxIter {
		iter++
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -cfg.Tol && alpha[i] < cfg.C) || (y[i]*ei > cfg.Tol && alpha[i] > 0)) {
				continue
			}
			j := r.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]
			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(cfg.C, cfg.C+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-cfg.C)
				hi = math.Min(cfg.C, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*k[i][j] - k[i][i] - k[j][j]
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			b1 := b - ei - y[i]*(aiNew-ai)*k[i][i] - y[j]*(ajNew-aj)*k[i][j]
			b2 := b - ej - y[i]*(aiNew-ai)*k[i][j] - y[j]*(ajNew-aj)*k[j][j]
			switch {
			case aiNew > 0 && aiNew < cfg.C:
				b = b1
			case ajNew > 0 && ajNew < cfg.C:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	// Keep only support vectors.
	m := &Model{kernel: cfg.Kernel, b: b}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			m.x = append(m.x, x[i])
			m.y = append(m.y, y[i])
			m.alpha = append(m.alpha, alpha[i])
		}
	}
	return m
}

// Decision returns the signed decision value for a sample.
func (m *Model) Decision(x []float64) float64 {
	s := m.b
	for i := range m.x {
		s += m.alpha[i] * m.y[i] * m.kernel.Eval(m.x[i], x)
	}
	return s
}

// Classify returns true for the +1 class (Sybil).
func (m *Model) Classify(x []float64) bool { return m.Decision(x) >= 0 }
