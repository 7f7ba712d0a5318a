package graph

// MaxFlowFunc computes the maximum integer flow from s to t treating
// every undirected edge of g as a pair of directed edges, using
// Dinic's algorithm. capOf is consulted once per undirected edge and
// applies in both directions. The SumUp baseline uses it to bound the
// number of votes (flow) the Sybil region can push to the vote
// collector.
func (g *Graph) MaxFlowFunc(s, t NodeID, capOf func(u, v NodeID) int) int {
	if s == t {
		return 0
	}
	d := newDinic(g, capOf)
	return d.run(s, t)
}

type dinicEdge struct {
	to  int32
	cap int32
	rev int32 // index of reverse edge in edges[to]
}

type dinic struct {
	edges [][]dinicEdge
	level []int32
	iter  []int32
}

func newDinic(g *Graph, capOf func(u, v NodeID) int) *dinic {
	n := g.NumNodes()
	d := &dinic{
		edges: make([][]dinicEdge, n),
		level: make([]int32, n),
		iter:  make([]int32, n),
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < e.To {
				d.addEdge(u, int(e.To), int32(capOf(NodeID(u), e.To)))
			}
		}
	}
	return d
}

func (d *dinic) addEdge(u, v int, c int32) {
	// Undirected edge: capacity c in both directions.
	d.edges[u] = append(d.edges[u], dinicEdge{to: int32(v), cap: c, rev: int32(len(d.edges[v]))})
	d.edges[v] = append(d.edges[v], dinicEdge{to: int32(u), cap: c, rev: int32(len(d.edges[u]) - 1)})
}

func (d *dinic) bfs(s, t int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	queue := []int{s}
	d.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range d.edges[u] {
			if e.cap > 0 && d.level[e.to] < 0 {
				d.level[e.to] = d.level[u] + 1
				queue = append(queue, int(e.to))
			}
		}
	}
	return d.level[t] >= 0
}

func (d *dinic) dfs(u, t int, f int32) int32 {
	if u == t {
		return f
	}
	for ; d.iter[u] < int32(len(d.edges[u])); d.iter[u]++ {
		e := &d.edges[u][d.iter[u]]
		if e.cap <= 0 || d.level[e.to] != d.level[u]+1 {
			continue
		}
		pushed := d.dfs(int(e.to), t, min(f, e.cap))
		if pushed > 0 {
			e.cap -= pushed
			d.edges[e.to][e.rev].cap += pushed
			return pushed
		}
	}
	return 0
}

func (d *dinic) run(s, t NodeID) int {
	const inf = int32(1) << 30
	flow := 0
	for d.bfs(int(s), int(t)) {
		for i := range d.iter {
			d.iter[i] = 0
		}
		for {
			f := d.dfs(int(s), int(t), inf)
			if f == 0 {
				break
			}
			flow += int(f)
		}
	}
	return flow
}
