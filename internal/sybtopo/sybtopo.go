// Package sybtopo generates paper-scale Sybil topology without paying
// event-level simulation cost. It implements the same generative
// mechanism the paper identifies in §3.4 — popularity-biased target
// sampling by Sybil-management tools, Sybils accepting every incoming
// request — as a direct statistical model, so the Figure 5–9 and
// Table 2 analyses can run over hundreds of thousands of Sybils.
//
// The model distinguishes three attacker populations:
//
//   - Wide operators: the bulk of Sybils. Each samples attack targets
//     from the global (Zipf-popular) user population. Accidental
//     Sybil→Sybil edges form when the sampled "popular user" happens to
//     be another (successful, hence popular) Sybil; targets are drawn
//     preferentially by attractiveness.
//   - Narrow operators: professional fleets whose tools crawl a small
//     region of the graph. Their Sybils aim huge request volumes at a
//     small audience (Table 2's second component: 631 Sybils, 1M attack
//     edges, only 21K audience) and accidentally befriend each other at
//     a much higher rate, forming medium components disconnected from
//     the giant one.
//   - Intentional operators: the handful of attackers (the circled
//     columns of Figure 8) who deliberately chain their Sybils together
//     immediately at creation time.
//
// An agent-level cross-check lives in the ablation benches: at small
// scale, the full agents simulation and this model agree on the
// Sybil-edge fraction and component shape.
package sybtopo

import (
	"math"
	"slices"

	"sybilwild/internal/graph"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

// Config parameterizes topology generation. All *Base fields are
// expressed at full paper scale (667,723 Sybils, 120M users) and are
// multiplied by Scale.
type Config struct {
	Scale float64 // fraction of paper scale; 0.1 ⇒ ~66,772 Sybils
	Seed  int64

	SybilsBase  int // 667,723 at scale 1
	NormalsBase int // 120M at scale 1

	// Attack-edge volume per Sybil (log-normal over accepted requests).
	AttackMuLog    float64
	AttackSigmaLog float64

	// Global accidental Sybil-edge rate: mean (over Sybils) number of
	// Sybil targets a wide Sybil's tool hands it. A Sybil's own rate
	// scales with its request volume — accidental Sybil targets are a
	// fixed small fraction of everything a tool crawls, so an account
	// sending 10× the requests collects ≈10× the accidental Sybil
	// edges. This volume-coupling is what produces the giant-but-loose
	// component: high-volume Sybils are simultaneously the most visible
	// targets and the most prolific requesters, so they form a sparse
	// core that low-volume Sybils dangle off with degree 1 (Figure 9).
	GlobalRate float64

	// RecencyDays bounds how old a Sybil account can be and still
	// surface in another tool's crawl: tools rank *currently* popular
	// accounts, and a dormant Sybil's visibility decays. This is also
	// what makes Sybil-edge positions uniform in the receiver's friend
	// list (Figure 8): edges land while both lists are still growing.
	RecencyDays int

	// Zipf exponent for target popularity within a crawl pool
	// (audience overlap).
	ZipfS float64

	// PopularTargetP is the probability a wide tool's request goes to a
	// Zipf-popular head user; the remainder go to ordinary users
	// discovered while crawling those hubs' neighbourhoods (snowball
	// sampling reaches both). This mixture sets the giant component's
	// audience/attack-edge ratio (Table 2 row 1: ≈0.66).
	PopularTargetP float64

	// Narrow operators: fleet sizes and audience pool sizes at full
	// scale, plus their attack-volume multiplier and intra-fleet
	// accidental edge rate.
	NarrowOpSizesBase []int
	NarrowPoolBase    []int
	NarrowAttackMult  float64
	NarrowIntraRate   float64

	// Intentional operators: number of deliberately-linked fleets at
	// full paper scale (multiplied by Scale like the other *Base
	// fields) and their size range.
	IntentionalOpsBase   int
	IntentionalMin       int
	IntentionalMax       int
	IntentionalExtraRate float64 // extra random intra-fleet links

	CampaignDays int // arrival spread (the paper's data covers 2008–2011)
}

// DefaultConfig returns the paper/10 default used by the benchmark
// harness. Unit tests use SmallConfig.
func DefaultConfig() Config {
	return Config{
		Scale:       0.1,
		Seed:        1,
		SybilsBase:  667723,
		NormalsBase: 120_000_000,

		AttackMuLog:    4.1, // median ≈ 60 accepted requests
		AttackSigmaLog: 1.1,

		GlobalRate:     0.24,
		RecencyDays:    150,
		ZipfS:          1.35,
		PopularTargetP: 0.25,

		NarrowOpSizesBase: []int{6310, 680, 510, 370, 200, 120},
		NarrowPoolBase:    []int{210140, 77020, 151790, 138860, 60000, 40000},
		NarrowAttackMult:  10,
		NarrowIntraRate:   1.8,

		IntentionalOpsBase:   400,
		IntentionalMin:       3,
		IntentionalMax:       16,
		IntentionalExtraRate: 0.5,

		CampaignDays: 3 * 365,
	}
}

// SmallConfig returns a fast configuration (~1/100 scale) for tests.
func SmallConfig(seed int64) Config {
	c := DefaultConfig()
	c.Scale = 0.01
	c.Seed = seed
	return c
}

// Operator describes one attacker fleet in the generated topology.
type Operator struct {
	Narrow      bool
	Intentional bool
	PoolStart   int64 // narrow ops: start of their audience block
	PoolSize    int64 // narrow ops: audience block size
	First, Last int   // member Sybil index range [First, Last]
}

// Topology is a generated Sybil topology. Sybil indices are dense
// [0, N) in arrival order; they are also the node IDs of SybilGraph.
type Topology struct {
	Cfg     Config
	Normals int64 // size of the virtual normal population

	// Per-Sybil data, indexed by Sybil (arrival order).
	AttackDeg  []int32    // accepted attack edges
	Arrival    []sim.Time // account creation time
	Window     []sim.Time // duration of the attack campaign activity
	TargetSeed []int64    // per-Sybil seed regenerating its attack targets
	Op         []int32    // operator index, -1 for independent wide Sybils

	Operators []Operator

	// SybilGraph holds only Sybil↔Sybil edges, timestamped with their
	// creation times.
	SybilGraph *graph.Graph
}

// NumSybils returns the number of generated Sybils.
func (t *Topology) NumSybils() int { return len(t.AttackDeg) }

// Generate builds a topology from the configuration.
func Generate(cfg Config) *Topology {
	r := stats.NewRand(cfg.Seed)
	n := int(float64(cfg.SybilsBase) * cfg.Scale)
	if n < 10 {
		n = 10
	}
	normals := int64(float64(cfg.NormalsBase) * cfg.Scale)
	if normals < 1000 {
		normals = 1000
	}
	campaign := sim.Time(cfg.CampaignDays) * sim.TicksPerDay

	t := &Topology{
		Cfg:        cfg,
		Normals:    normals,
		AttackDeg:  make([]int32, n),
		Arrival:    make([]sim.Time, n),
		Window:     make([]sim.Time, n),
		TargetSeed: make([]int64, n),
		Op:         make([]int32, n),
		SybilGraph: graph.New(n),
	}
	t.SybilGraph.AddNodes(n)

	// Arrivals: uniform over the campaign, sorted so index order is
	// arrival order.
	for i := 0; i < n; i++ {
		t.Arrival[i] = sim.Time(r.Int63n(int64(campaign)))
	}
	sortTimes(t.Arrival)
	for i := 0; i < n; i++ {
		t.Op[i] = -1
		t.TargetSeed[i] = r.Int63()
		t.AttackDeg[i] = int32(r.LogNormal(cfg.AttackMuLog, cfg.AttackSigmaLog)) + 1
		// Activity window: how long the account keeps sending.
		days := r.LogNormal(4.1, 0.6) // median ≈ 60 days
		t.Window[i] = sim.Time(days * float64(sim.TicksPerDay))
	}

	// Carve out narrow and intentional operator fleets as contiguous
	// arrival blocks (fleets spin up together).
	used := make([]bool, n)
	claimBlock := func(size int) (int, bool) {
		if size >= n {
			return 0, false
		}
		for try := 0; try < 50; try++ {
			start := r.Intn(n - size)
			ok := true
			for i := start; i < start+size; i++ {
				if used[i] {
					ok = false
					break
				}
			}
			if ok {
				for i := start; i < start+size; i++ {
					used[i] = true
				}
				return start, true
			}
		}
		return 0, false
	}

	for k, base := range cfg.NarrowOpSizesBase {
		size := int(float64(base) * cfg.Scale)
		if size < 3 {
			size = 3
		}
		start, ok := claimBlock(size)
		if !ok {
			continue
		}
		pool := int64(1000)
		if k < len(cfg.NarrowPoolBase) {
			pool = int64(float64(cfg.NarrowPoolBase[k]) * cfg.Scale)
		}
		if pool < 100 {
			pool = 100
		}
		poolStart := r.Int63n(max(normals-pool, 1))
		op := Operator{Narrow: true, PoolStart: poolStart, PoolSize: pool, First: start, Last: start + size - 1}
		opIdx := int32(len(t.Operators))
		t.Operators = append(t.Operators, op)
		for i := start; i < start+size; i++ {
			t.Op[i] = opIdx
			t.AttackDeg[i] = int32(float64(t.AttackDeg[i]) * cfg.NarrowAttackMult)
		}
	}
	nIntentional := int(float64(cfg.IntentionalOpsBase) * cfg.Scale)
	if nIntentional < 2 {
		nIntentional = 2
	}
	for k := 0; k < nIntentional; k++ {
		size := cfg.IntentionalMin + r.Intn(cfg.IntentionalMax-cfg.IntentionalMin+1)
		start, ok := claimBlock(size)
		if !ok {
			continue
		}
		op := Operator{Intentional: true, First: start, Last: start + size - 1}
		opIdx := int32(len(t.Operators))
		t.Operators = append(t.Operators, op)
		for i := start; i < start+size; i++ {
			t.Op[i] = opIdx
		}
	}

	t.createSybilEdges(r)
	return t
}

// createSybilEdges lays down the three kinds of Sybil↔Sybil edges.
func (t *Topology) createSybilEdges(r *stats.Rand) {
	n := t.NumSybils()
	// Global attractiveness: a Sybil surfaces in a wide tool's crawl in
	// proportion to how popular it became. Narrow-fleet Sybils live in
	// crawl backwaters and do not surface globally.
	// Visibility is superlinear in popularity: crawl ranking compounds
	// degree (appearing in more friend lists, higher search placement),
	// so the probability a tool surfaces a Sybil grows faster than its
	// degree. The exponent concentrates accidental in-edges on the core.
	wPrefix := make([]float64, n+1)
	for i := 0; i < n; i++ {
		var w float64
		if op := t.Op[i]; op < 0 || !t.Operators[op].Narrow {
			a := float64(t.AttackDeg[i])
			w = a * math.Sqrt(a)
		}
		wPrefix[i+1] = wPrefix[i] + w
	}
	lookback := sim.Time(t.Cfg.RecencyDays) * sim.TicksPerDay
	if lookback <= 0 {
		lookback = 90 * sim.TicksPerDay
	}
	// firstAtOrAfter returns the first index whose arrival is ≥ at.
	firstAtOrAfter := func(at sim.Time) int {
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if t.Arrival[mid] < at {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// pickConcurrent samples a target for a request sent at time ts by
	// Sybil j: a Sybil that arrived within the recency window before ts
	// and whose friend list is still growing (window covers ts), chosen
	// proportionally to global attractiveness. Returns -1 if none.
	pickConcurrent := func(j int, ts sim.Time) int {
		lo := firstAtOrAfter(ts - lookback)
		hi := firstAtOrAfter(ts + 1)
		if hi <= lo {
			return -1
		}
		mass := wPrefix[hi] - wPrefix[lo]
		if mass <= 0 {
			return -1
		}
		for try := 0; try < 10; try++ {
			u := wPrefix[lo] + r.Float64()*mass
			a, b := lo, hi-1
			for a < b {
				mid := (a + b) / 2
				if wPrefix[mid+1] <= u {
					a = mid + 1
				} else {
					b = mid
				}
			}
			if a != j && t.Arrival[a]+t.Window[a] >= ts {
				return a
			}
		}
		return -1
	}

	// Mean attack volume over globally-visible Sybils, for the
	// volume-coupled accidental rate.
	var meanA float64
	{
		var sum float64
		cnt := 0
		for i := 0; i < n; i++ {
			if op := t.Op[i]; op >= 0 && t.Operators[op].Narrow {
				continue
			}
			sum += float64(t.AttackDeg[i])
			cnt++
		}
		if cnt > 0 {
			meanA = sum / float64(cnt)
		}
	}

	for j := 0; j < n; j++ {
		opIdx := t.Op[j]
		switch {
		case opIdx >= 0 && t.Operators[opIdx].Narrow:
			op := t.Operators[opIdx]
			// Intra-fleet accidental edges: the fleet's tool crawls its
			// own region, where its own Sybils are the popular accounts.
			k := r.Poisson(t.Cfg.NarrowIntraRate)
			for e := 0; e < k; e++ {
				tgt := t.pickEarlierInOp(r, op, j)
				if tgt >= 0 {
					ts := t.Arrival[j] + sim.Time(r.Float64()*float64(t.Window[j]))
					t.SybilGraph.AddEdge(graph.NodeID(j), graph.NodeID(tgt), ts)
				}
			}
		case opIdx >= 0 && t.Operators[opIdx].Intentional:
			op := t.Operators[opIdx]
			// Deliberate linking: chain to the previous fleet member the
			// moment the account is created (Figure 8's vertical lines),
			// plus occasional extra links back into the fleet.
			if j > op.First {
				t.SybilGraph.AddEdge(graph.NodeID(j), graph.NodeID(j-1), t.Arrival[j])
				if r.Bernoulli(t.Cfg.IntentionalExtraRate) && j-op.First >= 2 {
					tgt := op.First + r.Intn(j-op.First)
					t.SybilGraph.AddEdge(graph.NodeID(j), graph.NodeID(tgt), t.Arrival[j]+1)
				}
			}
			// Intentional fleets still run wide tools afterwards.
			fallthrough
		default:
			rate := t.Cfg.GlobalRate
			if meanA > 0 {
				rate *= float64(t.AttackDeg[j]) / meanA
			}
			k := r.Poisson(rate)
			for e := 0; e < k; e++ {
				ts := t.Arrival[j] + sim.Time(r.Float64()*float64(t.Window[j]))
				tgt := pickConcurrent(j, ts)
				if tgt >= 0 {
					t.SybilGraph.AddEdge(graph.NodeID(j), graph.NodeID(tgt), ts)
				}
			}
		}
	}
}

func (t *Topology) pickEarlierInOp(r *stats.Rand, op Operator, j int) int {
	if j <= op.First {
		return -1
	}
	// Weighted by attack degree within the fleet's earlier members.
	var total float64
	for i := op.First; i < j; i++ {
		total += float64(t.AttackDeg[i])
	}
	if total <= 0 {
		return -1
	}
	u := r.Float64() * total
	for i := op.First; i < j; i++ {
		u -= float64(t.AttackDeg[i])
		if u <= 0 {
			return i
		}
	}
	return j - 1
}

func sortTimes(ts []sim.Time) {
	slices.Sort(ts)
}
