package stats

import (
	"math"
	"math/rand"
)

// Rand wraps math/rand with the distribution families the simulator
// needs. All sybilwild randomness flows through injected *Rand values so
// every experiment is reproducible from a single seed.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{Rand: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child generator. Each call advances the
// parent, so successive forks are distinct but reproducible.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Int63())
}

// Exponential draws from an exponential distribution with the given
// mean (not rate). Mean must be positive.
func (r *Rand) Exponential(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// LogNormal draws from a log-normal distribution where the underlying
// normal has mean mu and standard deviation sigma.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64()*sigma + mu)
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Poisson draws from a Poisson distribution with the given mean using
// Knuth's method for small means and a normal approximation for large
// ones. It is used for per-window invitation counts.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		// Normal approximation; adequate for workload generation.
		v := r.NormFloat64()*math.Sqrt(mean) + mean
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Beta draws from a Beta(a, b) distribution via Jöhnk's/gamma method.
// It models per-user accept probabilities (values in [0, 1]).
func (r *Rand) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Gamma draws from a Gamma distribution with shape k and scale 1 using
// the Marsaglia–Tsang method.
func (r *Rand) Gamma(k float64) float64 {
	if k < 1 {
		// Boost: Gamma(k) = Gamma(k+1) * U^(1/k)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// ZipfRanks returns a sampler over ranks [0, n) following a Zipf
// distribution with exponent s ≥ 1. Used by snowball-sampling tools to
// bias target selection toward popular users.
func (r *Rand) ZipfRanks(s float64, n int) func() int {
	if n <= 0 {
		panic("stats: ZipfRanks needs n > 0")
	}
	if s < 1 {
		s = 1
	}
	z := rand.NewZipf(r.Rand, s, 1, uint64(n-1))
	if z == nil {
		panic("stats: invalid Zipf parameters")
	}
	return func() int { return int(z.Uint64()) }
}

// Shuffle permutes xs in place.
func Shuffle[T any](r *Rand, xs []T) {
	r.Rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// StratifiedFolds assigns n samples to k cross-validation folds,
// stratified by class: the indices where positive holds and the rest
// are each shuffled (positives first) and dealt into folds
// round-robin, so every fold gets its share of both classes. It
// returns each sample's fold in [0, k).
func StratifiedFolds(r *Rand, n, k int, positive func(i int) bool) []int {
	var pos, neg []int
	for i := 0; i < n; i++ {
		if positive(i) {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	Shuffle(r, pos)
	Shuffle(r, neg)
	fold := make([]int, n)
	for _, class := range [][]int{pos, neg} {
		for i, idx := range class {
			fold[idx] = i % k
		}
	}
	return fold
}

// SampleWithoutReplacement picks k distinct indices from [0, n). When
// k ≥ n it returns all n indices in shuffled order.
func SampleWithoutReplacement(r *Rand, n, k int) []int {
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		Shuffle(r, idx)
		return idx
	}
	// Floyd's algorithm.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	Shuffle(r, out)
	return out
}
