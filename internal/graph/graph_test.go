package graph

import (
	"testing"

	"sybilwild/internal/stats"
)

func path(n int) *Graph {
	g := New(n)
	g.AddNodes(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), int64(i))
	}
	return g
}

func complete(n int) *Graph {
	g := New(n)
	g.AddNodes(n)
	t := int64(0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(NodeID(i), NodeID(j), t)
			t++
		}
	}
	return g
}

// randomGraph returns an Erdős–Rényi style graph with n nodes and
// roughly m edges.
func randomGraph(r *stats.Rand, n, m int) *Graph {
	g := New(n)
	g.AddNodes(n)
	for i := 0; i < m; i++ {
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		if u != v {
			g.AddEdge(u, v, int64(i))
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	g.AddNodes(3)
	if !g.AddEdge(0, 1, 5) {
		t.Fatal("first add returned false")
	}
	if g.AddEdge(1, 0, 6) {
		t.Fatal("duplicate add returned true")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not visible from both sides")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("degree wrong")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on self-loop")
		}
	}()
	g := New(1)
	g.AddNodes(1)
	g.AddEdge(0, 0, 0)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range node")
		}
	}()
	g := New(1)
	g.AddNodes(1)
	g.Degree(5)
}

func TestNeighborsPreserveInsertionOrder(t *testing.T) {
	g := New(4)
	g.AddNodes(4)
	g.AddEdge(0, 2, 10)
	g.AddEdge(0, 1, 20)
	g.AddEdge(0, 3, 30)
	nbrs := g.Neighbors(0)
	want := []NodeID{2, 1, 3}
	for i, e := range nbrs {
		if e.To != want[i] {
			t.Fatalf("order = %v", nbrs)
		}
	}
	if nbrs[0].Time != 10 || nbrs[2].Time != 30 {
		t.Fatalf("timestamps = %v", nbrs)
	}
}

func TestEdgesEnumeratesOnce(t *testing.T) {
	g := complete(4)
	es := g.Edges()
	if len(es) != 6 {
		t.Fatalf("edges = %d, want 6", len(es))
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Fatalf("edge not canonical: %+v", e)
		}
	}
}

func TestComponentsPathAndIslands(t *testing.T) {
	g := path(4)
	g.AddNodes(2) // two isolated nodes
	labels, sizes := g.Components()
	if len(sizes) != 3 {
		t.Fatalf("components = %d, want 3", len(sizes))
	}
	if sizes[labels[0]] != 4 {
		t.Fatalf("path component size = %d", sizes[labels[0]])
	}
	if labels[4] == labels[5] {
		t.Fatal("isolated nodes share a component")
	}
}

func TestComponentsMatchBFSProperty(t *testing.T) {
	r := stats.NewRand(31)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(60)
		g := randomGraph(r, n, r.Intn(3*n))
		l1, s1 := g.Components()
		l2, s2 := g.ComponentsBFS()
		if len(s1) != len(s2) {
			t.Fatalf("component counts differ: %d vs %d", len(s1), len(s2))
		}
		// The labelings must induce the same partition.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				same1 := l1[u] == l1[v]
				same2 := l2[u] == l2[v]
				if same1 != same2 {
					t.Fatalf("partition mismatch at (%d,%d)", u, v)
				}
			}
		}
	}
}

func TestComponentSizesPartitionNodes(t *testing.T) {
	r := stats.NewRand(37)
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(80)
		g := randomGraph(r, n, r.Intn(2*n))
		_, sizes := g.Components()
		total := 0
		for _, s := range sizes {
			if s <= 0 {
				t.Fatalf("non-positive component size %d", s)
			}
			total += s
		}
		if total != n {
			t.Fatalf("sizes sum to %d, want %d", total, n)
		}
	}
}

func TestComponentMembersSortedBySize(t *testing.T) {
	g := path(5)
	g.AddNodes(1)
	g.AddEdge(5, 0, 99) // join the island to the path: single comp of 6
	g.AddNodes(3)
	g.AddEdge(6, 7, 1) // pair
	labels, sizes := g.Components()
	groups := ComponentMembers(labels, sizes)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	if len(groups[0]) != 6 || len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Fatalf("group sizes = %d %d %d", len(groups[0]), len(groups[1]), len(groups[2]))
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("union returned false")
	}
	if uf.Union(0, 2) {
		t.Fatal("redundant union returned true")
	}
	if uf.Find(0) != uf.Find(2) {
		t.Fatal("0 and 2 not joined")
	}
	size := 0
	for x := 0; x < 5; x++ {
		if uf.Find(x) == uf.Find(1) {
			size++
		}
	}
	if size != 3 {
		t.Fatalf("set of 1 has %d members, want 3", size)
	}
	if uf.Find(3) == uf.Find(0) {
		t.Fatal("3 spuriously joined")
	}
}

// fullCC is the clustering coefficient over u's whole neighbourhood.
func fullCC(g *Graph, u NodeID) float64 { return g.ClusteringFirstK(u, g.Degree(u)) }

func TestClusteringComplete(t *testing.T) {
	g := complete(5)
	for u := 0; u < 5; u++ {
		if cc := fullCC(g, NodeID(u)); cc != 1 {
			t.Fatalf("cc of complete graph node = %v", cc)
		}
	}
}

func TestClusteringStar(t *testing.T) {
	// Star: hub 0 with 4 spokes, no spoke-spoke edges.
	g := New(5)
	g.AddNodes(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(0, NodeID(i), int64(i))
	}
	if cc := fullCC(g, 0); cc != 0 {
		t.Fatalf("hub cc = %v", cc)
	}
	if cc := fullCC(g, 1); cc != 0 {
		t.Fatalf("degree-1 cc = %v", cc)
	}
}

func TestClusteringTriangle(t *testing.T) {
	// Node 0 with neighbours 1,2,3; only 1-2 connected: cc = 1/3.
	g := New(4)
	g.AddNodes(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(0, 3, 3)
	g.AddEdge(1, 2, 4)
	if cc := fullCC(g, 0); cc != 1.0/3.0 {
		t.Fatalf("cc = %v, want 1/3", cc)
	}
}

func TestClusteringFirstK(t *testing.T) {
	// First two friends of 0 (nodes 1,2) are connected; third (3) is not.
	g := New(4)
	g.AddNodes(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(0, 3, 3)
	g.AddEdge(1, 2, 4)
	if cc := g.ClusteringFirstK(0, 2); cc != 1 {
		t.Fatalf("first-2 cc = %v, want 1", cc)
	}
	if cc := g.ClusteringFirstK(0, 3); cc != 1.0/3.0 {
		t.Fatalf("first-3 cc = %v, want 1/3", cc)
	}
	// k larger than degree falls back to full neighbourhood.
	if cc := g.ClusteringFirstK(0, 50); cc != 1.0/3.0 {
		t.Fatal("k>deg mismatch with full clustering")
	}
}

func TestClusteringRangeProperty(t *testing.T) {
	r := stats.NewRand(41)
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(40)
		g := randomGraph(r, n, r.Intn(4*n))
		for u := 0; u < n; u++ {
			cc := fullCC(g, NodeID(u))
			if cc < 0 || cc > 1 {
				t.Fatalf("cc out of range: %v", cc)
			}
			ck := g.ClusteringFirstK(NodeID(u), 5)
			if ck < 0 || ck > 1 {
				t.Fatalf("first-k cc out of range: %v", ck)
			}
		}
	}
}

// TestClusteringMatchesPairCount checks both sizings of clusteringOver's
// membership table — the stack-resident one (selections up to smallSet)
// and the allocated one (larger) — against the definition: the share of
// pairs among the selected neighbours that are adjacent.
func TestClusteringMatchesPairCount(t *testing.T) {
	byPairs := func(g *Graph, nbrs []Edge) float64 {
		if len(nbrs) < 2 {
			return 0
		}
		links := 0
		for i := range nbrs {
			for j := i + 1; j < len(nbrs); j++ {
				if g.HasEdge(nbrs[i].To, nbrs[j].To) {
					links++
				}
			}
		}
		return float64(links) / float64(len(nbrs)*(len(nbrs)-1)/2)
	}
	r := stats.NewRand(43)
	small, large := 0, 0
	for trial := 0; trial < 12; trial++ {
		n := 20 + r.Intn(120)
		m := n * (2 + r.Intn(6))
		if trial%2 == 1 {
			m = n * n / 2 // dense: most degrees above smallSet
		}
		g := randomGraph(r, n, m)
		for u := 0; u < n; u++ {
			nbrs := g.Neighbors(NodeID(u))
			if len(nbrs) > smallSet {
				large++
			} else {
				small++
			}
			if got, want := fullCC(g, NodeID(u)), byPairs(g, nbrs); got != want {
				t.Fatalf("trial %d node %d (degree %d): full-neighbourhood cc %v, pair count %v", trial, u, len(nbrs), got, want)
			}
			for _, k := range []int{2, 7, smallSet} {
				if got, want := g.ClusteringFirstK(NodeID(u), k), byPairs(g, nbrs[:min(k, len(nbrs))]); got != want {
					t.Fatalf("trial %d node %d: ClusteringFirstK(%d) %v, pair count %v", trial, u, k, got, want)
				}
			}
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("one table sizing untested: %d small selections, %d large", small, large)
	}
}

// TestClusteringFirstKDoesNotAllocate: the detector's hot call keeps
// its membership set on the stack — nothing allocated per evaluation and
// no scratch owned by the graph, which would break concurrent reads.
func TestClusteringFirstKDoesNotAllocate(t *testing.T) {
	g := randomGraph(stats.NewRand(47), 200, 8000)
	if d := g.Degree(0); d <= smallSet {
		t.Fatalf("node 0 has degree %d; the test wants a full first-%d selection", d, smallSet)
	}
	var cc float64
	if allocs := testing.AllocsPerRun(100, func() { cc += g.ClusteringFirstK(0, smallSet) }); allocs != 0 {
		t.Fatalf("ClusteringFirstK(u, %d) allocates %v objects per call", smallSet, allocs)
	}
	if cc == 0 {
		t.Fatal("clustering coefficient of a dense node is 0; the walk did not run")
	}
}

// TestGraphGrowthKeepsNodesAndEdges: the node headers grow by doubling
// and the edge log by pages; neither may lose or reorder anything, and
// nodes added into spare capacity start empty.
func TestGraphGrowthKeepsNodesAndEdges(t *testing.T) {
	var g Graph
	var want []EdgeTriple
	for u := NodeID(1); u < 3000; u++ {
		for g.NumNodes() <= int(u) {
			if id := g.AddNode(); g.Degree(id) != 0 {
				t.Fatalf("new node %d has degree %d", id, g.Degree(id))
			}
		}
		v := u / 2
		g.AddEdge(u, v, int64(u))
		want = append(want, EdgeTriple{U: v, V: u, Time: int64(u)})
	}
	got := g.Edges()
	if len(got) != len(want) || g.NumEdges() != len(want) {
		t.Fatalf("%d edges out, NumEdges %d, want %d", len(got), g.NumEdges(), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	h, err := FromSnapshot(g.Snapshot())
	if err != nil || !g.Equal(h) {
		t.Fatalf("snapshot round trip differs (err %v)", err)
	}
	if first := g.AddNodes(5000); int(first) != 3000 || g.NumNodes() != 8000 || g.Degree(7999) != 0 || g.Degree(2999) != 1 {
		t.Fatalf("AddNodes(5000) returned %d, graph has %d nodes", first, g.NumNodes())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(5)
	g.AddNodes(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 4, 4)
	g.AddEdge(0, 4, 5)
	keep := []bool{true, true, true, false, false}
	sub, fwd, rev := g.Induced(keep)
	if sub.NumNodes() != 3 {
		t.Fatalf("induced nodes = %d", sub.NumNodes())
	}
	if sub.NumEdges() != 2 {
		t.Fatalf("induced edges = %d", sub.NumEdges())
	}
	if fwd[3] != -1 || fwd[0] != 0 {
		t.Fatalf("fwd = %v", fwd)
	}
	if rev[fwd[2]] != 2 {
		t.Fatalf("rev mapping broken")
	}
	if !sub.HasEdge(fwd[0], fwd[1]) || !sub.HasEdge(fwd[1], fwd[2]) {
		t.Fatal("induced edges missing")
	}
}

func TestInducedPreservesTimeOrder(t *testing.T) {
	g := New(4)
	g.AddNodes(4)
	// Node 1 gains friends in order 2 (t=1), 0 (t=5), 3 (t=9).
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 0, 5)
	g.AddEdge(1, 3, 9)
	keep := []bool{true, true, true, true}
	sub, fwd, _ := g.Induced(keep)
	nbrs := sub.Neighbors(fwd[1])
	if len(nbrs) != 3 {
		t.Fatalf("deg = %d", len(nbrs))
	}
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i].Time < nbrs[i-1].Time {
			t.Fatalf("time order broken: %v", nbrs)
		}
	}
}

// constFlow is the max flow from s to t with capacity c on every edge.
func constFlow(g *Graph, s, t NodeID, c int) int {
	return g.MaxFlowFunc(s, t, func(NodeID, NodeID) int { return c })
}

func TestMaxFlowPath(t *testing.T) {
	g := path(5)
	if f := constFlow(g, 0, 4, 1); f != 1 {
		t.Fatalf("path flow = %d, want 1", f)
	}
	if f := constFlow(g, 0, 4, 3); f != 3 {
		t.Fatalf("path flow cap3 = %d, want 3", f)
	}
}

func TestMaxFlowComplete(t *testing.T) {
	g := complete(4)
	// Between any two nodes of K4 with unit capacities: 3 edge-disjoint
	// paths (direct + two 2-hop).
	if f := constFlow(g, 0, 3, 1); f != 3 {
		t.Fatalf("K4 flow = %d, want 3", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := New(4)
	g.AddNodes(4)
	g.AddEdge(0, 1, 0)
	g.AddEdge(2, 3, 0)
	if f := constFlow(g, 0, 3, 5); f != 0 {
		t.Fatalf("disconnected flow = %d", f)
	}
	if f := constFlow(g, 0, 0, 1); f != 0 {
		t.Fatalf("s==t flow = %d", f)
	}
}

func TestMaxFlowBoundedByMinDegreeProperty(t *testing.T) {
	r := stats.NewRand(43)
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(30)
		g := randomGraph(r, n, r.Intn(4*n))
		s := NodeID(r.Intn(n))
		tn := NodeID(r.Intn(n))
		if s == tn {
			continue
		}
		f := constFlow(g, s, tn, 1)
		bound := g.Degree(s)
		if g.Degree(tn) < bound {
			bound = g.Degree(tn)
		}
		if f > bound {
			t.Fatalf("flow %d exceeds degree bound %d", f, bound)
		}
		if f < 0 {
			t.Fatalf("negative flow %d", f)
		}
	}
}

func TestRandomWalkStaysOnEdges(t *testing.T) {
	r := stats.NewRand(47)
	g := randomGraph(r, 30, 60)
	walk := g.RandomWalk(r, 0, 50)
	if walk[0] != 0 {
		t.Fatal("walk does not start at start")
	}
	for i := 1; i < len(walk); i++ {
		if !g.HasEdge(walk[i-1], walk[i]) {
			t.Fatalf("walk used non-edge %d-%d", walk[i-1], walk[i])
		}
	}
}

func TestRandomWalkDeadEnd(t *testing.T) {
	g := New(1)
	g.AddNodes(1)
	r := stats.NewRand(1)
	walk := g.RandomWalk(r, 0, 10)
	if len(walk) != 1 {
		t.Fatalf("walk from isolated node = %v", walk)
	}
}

func TestRandomRouteConvergence(t *testing.T) {
	// Random routes entering a node along the same edge must leave along
	// the same edge — the property SybilGuard depends on.
	r := stats.NewRand(53)
	g := randomGraph(r, 40, 120)
	perm := NewSeededPermuter(99)
	// Two routes that pass through the same directed edge must coincide
	// afterwards. Construct them by starting routes at all nodes and
	// recording, for each directed edge traversal, the following hop.
	nextHop := map[[2]NodeID]NodeID{}
	for s := 0; s < g.NumNodes(); s++ {
		route := g.RandomRoute(perm, NodeID(s), 12)
		for i := 1; i < len(route)-1; i++ {
			key := [2]NodeID{route[i-1], route[i]}
			if prev, ok := nextHop[key]; ok {
				if prev != route[i+1] {
					t.Fatalf("route divergence after edge %v: %d vs %d", key, prev, route[i+1])
				}
			} else {
				nextHop[key] = route[i+1]
			}
		}
	}
}

func TestRandomRouteOnEdges(t *testing.T) {
	r := stats.NewRand(59)
	g := randomGraph(r, 25, 70)
	perm := NewSeededPermuter(7)
	route := g.RandomRoute(perm, 3, 30)
	for i := 1; i < len(route); i++ {
		if !g.HasEdge(route[i-1], route[i]) {
			t.Fatalf("route used non-edge")
		}
	}
}

func TestSeededPermuterBijection(t *testing.T) {
	p := NewSeededPermuter(123)
	for _, deg := range []int{1, 2, 5, 17} {
		seen := map[int]bool{}
		for in := 0; in < deg; in++ {
			out := p.Permute(NodeID(4), in, deg)
			if out < 0 || out >= deg {
				t.Fatalf("permute out of range: %d (deg %d)", out, deg)
			}
			if seen[out] {
				t.Fatalf("permute not bijective at deg %d", deg)
			}
			seen[out] = true
		}
	}
}

func TestSnowballFindsNodes(t *testing.T) {
	r := stats.NewRand(61)
	g := randomGraph(r, 100, 400)
	seeds := []NodeID{0}
	got := g.Snowball(r, seeds, 30, 0.9)
	if len(got) == 0 {
		t.Fatal("snowball found nothing")
	}
	seen := map[NodeID]bool{0: true}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate in snowball sample: %d", v)
		}
		seen[v] = true
	}
}

func TestSnowballBiasPrefersPopular(t *testing.T) {
	// A hub-heavy graph: snowball with bias 1 should reach the hub's
	// neighbourhood fast; verify mean degree of sample with bias=1 is at
	// least that with bias=0 (popularity bias).
	r := stats.NewRand(67)
	g := New(0)
	g.AddNodes(200)
	// Hub 0 connected to 0..99; chain on 100..199.
	for i := 1; i < 100; i++ {
		g.AddEdge(0, NodeID(i), int64(i))
	}
	for i := 100; i < 199; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), int64(i))
	}
	g.AddEdge(1, 100, 500) // connect the regions
	meanDeg := func(bias float64) float64 {
		r2 := stats.NewRand(71)
		sample := g.Snowball(r2, []NodeID{150}, 40, bias)
		var sum float64
		for _, v := range sample {
			sum += float64(g.Degree(v))
		}
		if len(sample) == 0 {
			return 0
		}
		return sum / float64(len(sample))
	}
	if meanDeg(1) < meanDeg(0) {
		t.Fatalf("bias=1 sample less popular than bias=0: %v < %v", meanDeg(1), meanDeg(0))
	}
	_ = r
}

func TestDegrees(t *testing.T) {
	g := path(3)
	ds := g.Degrees()
	if ds[0] != 1 || ds[1] != 2 || ds[2] != 1 {
		t.Fatalf("degrees = %v", ds)
	}
}
