// Package graph implements the social-graph substrate of the sybilwild
// reproduction: an undirected graph with per-edge creation timestamps,
// plus the analyses the paper runs over it — degree distributions,
// clustering coefficients, connected components, snowball and random-walk
// sampling, conductance, and max-flow (for the SumUp baseline).
//
// Node identifiers are dense integers assigned by AddNode, so all
// structures are slice-backed and the package comfortably handles the
// paper-scale graphs (10⁵–10⁶ nodes, 10⁶–10⁷ edges) without hashing
// overhead on the hot paths.
package graph

import (
	"fmt"

	"sybilwild/internal/paged"
)

// NodeID identifies a node. IDs are dense: the n-th added node has ID n-1.
type NodeID int32

// Edge is one directed half of an undirected edge, stored in the
// adjacency list of its source node. Adjacency lists preserve insertion
// order, which the paper's Figure 8 analysis relies on (the order in
// which an account added its friends).
type Edge struct {
	To   NodeID
	Time int64 // creation timestamp, simulation ticks
}

// Graph is an undirected graph with timestamped edges. The zero value
// is an empty graph ready to use. Graph is not safe for concurrent
// mutation; concurrent reads are safe.
type Graph struct {
	// adj holds one header per node; the lists behind them are ordinary
	// contiguous slices. The header array grows by doubling (AddNodes).
	adj [][]Edge
	// order records undirected edges in creation order
	// (canonical U < V), at indices [0, edges). Serialization replays it
	// so per-node friend-list order — which the first-50-friends
	// clustering metric and the Figure 8 analysis depend on — survives a
	// round trip exactly. It is paged: an append-only log this size
	// (one triple per accept on the detector's feed) would otherwise be
	// re-copied several times over as it grows.
	order paged.Slab[EdgeTriple]
	edges int
}

// New returns an empty graph pre-sized for n nodes.
func New(n int) *Graph {
	return &Graph{adj: make([][]Edge, 0, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddNode creates a new node and returns its ID.
func (g *Graph) AddNode() NodeID { return g.AddNodes(1) }

// AddNodes creates n nodes and returns the ID of the first.
func (g *Graph) AddNodes(n int) NodeID {
	if n < 0 {
		panic(fmt.Sprintf("graph: AddNodes(%d)", n))
	}
	first := len(g.adj)
	if first+n > cap(g.adj) {
		// Double rather than append's 1.25x: a graph grown a node at a
		// time (the detector's reconstruction) would otherwise copy the
		// header array about five times its final size.
		grown := make([][]Edge, first, max(2*cap(g.adj), first+n))
		copy(grown, g.adj)
		g.adj = grown
	}
	g.adj = g.adj[:first+n]
	return NodeID(first)
}

// AddEdge inserts the undirected edge {u, v} with creation time t.
// It panics on self-loops or out-of-range IDs and reports whether the
// edge was added (false if it already existed).
func (g *Graph) AddEdge(u, v NodeID, t int64) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	g.check(u)
	g.check(v)
	if g.HasEdge(u, v) {
		return false
	}
	g.addEdgeUnchecked(u, v, t)
	return true
}

// HasEdge reports whether {u, v} exists. It scans the smaller of the
// two adjacency lists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, e := range g.adj[a] {
		if e.To == b {
			return true
		}
	}
	return false
}

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u NodeID) int {
	g.check(u)
	return len(g.adj[u])
}

// Neighbors returns u's adjacency list in edge-insertion order. The
// returned slice is the internal storage: callers must not modify it.
func (g *Graph) Neighbors(u NodeID) []Edge {
	g.check(u)
	return g.adj[u]
}

// Degrees returns the degree of every node, indexed by NodeID.
func (g *Graph) Degrees() []int {
	ds := make([]int, len(g.adj))
	for i := range g.adj {
		ds[i] = len(g.adj[i])
	}
	return ds
}

func (g *Graph) check(u NodeID) {
	if u < 0 || int(u) >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.adj)))
	}
}

// Induced builds the subgraph induced by keep (nodes for which
// keep[id] is true). It returns the new graph plus the mapping from
// original IDs to induced IDs (-1 when excluded) and the reverse
// mapping. Edge insertion order — and therefore timestamps and creation
// order — is preserved per node.
func (g *Graph) Induced(keep []bool) (sub *Graph, fwd []NodeID, rev []NodeID) {
	if len(keep) != len(g.adj) {
		panic("graph: keep mask length mismatch")
	}
	fwd = make([]NodeID, len(g.adj))
	for i := range fwd {
		fwd[i] = -1
	}
	sub = New(0)
	for i, k := range keep {
		if k {
			id := sub.AddNode()
			fwd[i] = id
			rev = append(rev, NodeID(i))
		}
	}
	for u := range g.adj {
		if fwd[u] < 0 {
			continue
		}
		for _, e := range g.adj[u] {
			if NodeID(u) < e.To && fwd[e.To] >= 0 {
				sub.addEdgeUnchecked(fwd[u], fwd[e.To], e.Time)
			}
		}
	}
	// Re-sort each adjacency list by time so creation order survives the
	// u<v insertion pass above.
	for u := range sub.adj {
		sortEdgesByTime(sub.adj[u])
	}
	return sub, fwd, rev
}

// addEdgeUnchecked inserts without the duplicate scan; used internally
// where the caller guarantees uniqueness.
func (g *Graph) addEdgeUnchecked(u, v NodeID, t int64) {
	g.adj[u] = append(g.adj[u], Edge{To: v, Time: t})
	g.adj[v] = append(g.adj[v], Edge{To: u, Time: t})
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	*g.order.At(g.edges) = EdgeTriple{U: a, V: b, Time: t}
	g.edges++
}

func sortEdgesByTime(es []Edge) {
	// Insertion sort: lists are usually nearly sorted already because
	// simulation inserts in time order.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Time < es[j-1].Time; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// EdgeTriple is one undirected edge in canonical (U < V) form.
type EdgeTriple struct {
	U, V NodeID
	Time int64
}

// Edges returns every undirected edge exactly once (U < V), in
// creation order. The returned slice is a copy, nil for an edgeless
// graph (which is what a snapshot of one serializes).
func (g *Graph) Edges() []EdgeTriple {
	if g.edges == 0 {
		return nil
	}
	out := make([]EdgeTriple, g.edges)
	for i := range out {
		out[i] = *g.order.Peek(i)
	}
	return out
}
