package graph

import (
	"testing"

	"sybilwild/internal/stats"
)

// TestMaxFlowSymmetryProperty: on an undirected graph, flow(s,t) must
// equal flow(t,s).
func TestMaxFlowSymmetryProperty(t *testing.T) {
	r := stats.NewRand(101)
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(25)
		g := randomGraph(r, n, r.Intn(4*n)+n)
		s := NodeID(r.Intn(n))
		d := NodeID(r.Intn(n))
		if s == d {
			continue
		}
		if f1, f2 := constFlow(g, s, d, 1), constFlow(g, d, s, 1); f1 != f2 {
			t.Fatalf("asymmetric flow: %d vs %d", f1, f2)
		}
	}
}

// TestMaxFlowCapacityScalingProperty: doubling uniform capacities must
// exactly double the max flow.
func TestMaxFlowCapacityScalingProperty(t *testing.T) {
	r := stats.NewRand(103)
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(20)
		g := randomGraph(r, n, 3*n)
		s, d := NodeID(0), NodeID(n-1)
		f1 := constFlow(g, s, d, 1)
		f2 := constFlow(g, s, d, 2)
		if f2 != 2*f1 {
			t.Fatalf("capacity scaling broken: cap1=%d cap2=%d", f1, f2)
		}
	}
}

// TestMaxFlowMatchesCutOnBridge: a known bottleneck bounds the flow
// exactly (max-flow = min-cut on a constructed instance).
func TestMaxFlowMatchesCutOnBridge(t *testing.T) {
	r := stats.NewRand(107)
	// Two dense blobs joined by exactly k bridges.
	for _, k := range []int{1, 2, 3, 5} {
		g := New(0)
		g.AddNodes(30)
		for i := 0; i < 15; i++ {
			for j := i + 1; j < 15; j++ {
				if r.Bernoulli(0.5) {
					g.AddEdge(NodeID(i), NodeID(j), 0)
				}
			}
		}
		for i := 15; i < 30; i++ {
			for j := i + 1; j < 30; j++ {
				if r.Bernoulli(0.5) {
					g.AddEdge(NodeID(i), NodeID(j), 0)
				}
			}
		}
		for b := 0; b < k; b++ {
			g.AddEdge(NodeID(b), NodeID(15+b), 0)
		}
		// Guarantee s and t are connected to their blobs.
		g.AddEdge(0, 1, 0)
		g.AddEdge(28, 29, 0)
		f := constFlow(g, 1, 29, 1)
		if f > k {
			t.Fatalf("flow %d exceeds bridge cut %d", f, k)
		}
	}
}

// TestInducedEdgeCountProperty: the induced subgraph contains exactly
// the edges with both endpoints kept.
func TestInducedEdgeCountProperty(t *testing.T) {
	r := stats.NewRand(109)
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(40)
		g := randomGraph(r, n, r.Intn(3*n))
		keep := make([]bool, n)
		for i := range keep {
			keep[i] = r.Bernoulli(0.5)
		}
		want := 0
		for _, e := range g.Edges() {
			if keep[e.U] && keep[e.V] {
				want++
			}
		}
		sub, _, _ := g.Induced(keep)
		if sub.NumEdges() != want {
			t.Fatalf("induced edges = %d, want %d", sub.NumEdges(), want)
		}
	}
}

// TestEdgesMatchAdjacency: Edges() and adjacency lists describe the
// same edge set, and NumEdges agrees.
func TestEdgesMatchAdjacency(t *testing.T) {
	r := stats.NewRand(127)
	g := randomGraph(r, 50, 120)
	es := g.Edges()
	if len(es) != g.NumEdges() {
		t.Fatalf("Edges len %d != NumEdges %d", len(es), g.NumEdges())
	}
	for _, e := range es {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("listed edge %v missing from adjacency", e)
		}
	}
	// Degree sum = 2m.
	sum := 0
	for _, d := range g.Degrees() {
		sum += d
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2m %d", sum, 2*g.NumEdges())
	}
}

// TestEdgesCreationOrder: Edges() preserves insertion order, which the
// trace round trip depends on.
func TestEdgesCreationOrder(t *testing.T) {
	g := New(5)
	g.AddNodes(5)
	g.AddEdge(3, 1, 10)
	g.AddEdge(0, 4, 20)
	g.AddEdge(2, 0, 30)
	es := g.Edges()
	if es[0].Time != 10 || es[1].Time != 20 || es[2].Time != 30 {
		t.Fatalf("creation order lost: %+v", es)
	}
	if es[0].U != 1 || es[0].V != 3 {
		t.Fatalf("edges not canonical: %+v", es[0])
	}
}
