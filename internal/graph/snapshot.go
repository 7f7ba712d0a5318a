package graph

import "fmt"

// Snapshot is a complete serializable image of a Graph: the node count
// plus every undirected edge in creation order. Because adjacency
// lists are insertion-ordered and insertion order is exactly edge
// creation order, replaying the triples reconstructs per-node
// friend-list order — which the first-50-friends clustering metric and
// the Figure 8 analysis depend on — identically.
type Snapshot struct {
	Nodes int          `json:"nodes"`
	Edges []EdgeTriple `json:"edges"`
}

// Snapshot captures the graph's current state. The edge slice is a
// copy; the snapshot stays valid as the graph keeps growing.
func (g *Graph) Snapshot() Snapshot {
	return Snapshot{Nodes: len(g.adj), Edges: g.Edges()}
}

// FromSnapshot rebuilds a graph from a snapshot. It validates edge
// endpoints (a corrupt checkpoint must fail loudly, not panic deep in
// a later traversal) and returns a graph equal to the snapshotted one:
// same nodes, same edges, same per-node insertion order.
func FromSnapshot(s Snapshot) (*Graph, error) {
	if s.Nodes < 0 {
		return nil, fmt.Errorf("graph: snapshot has negative node count %d", s.Nodes)
	}
	g := New(s.Nodes)
	g.AddNodes(s.Nodes)
	for i, e := range s.Edges {
		if e.U < 0 || int(e.U) >= s.Nodes || e.V < 0 || int(e.V) >= s.Nodes {
			return nil, fmt.Errorf("graph: snapshot edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, s.Nodes)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: snapshot edge %d is a self-loop on %d", i, e.U)
		}
		// AddEdge (not addEdgeUnchecked): its duplicate scan keeps a
		// corrupt snapshot from silently building a multigraph.
		if !g.AddEdge(e.U, e.V, e.Time) {
			return nil, fmt.Errorf("graph: snapshot edge %d (%d,%d) duplicated", i, e.U, e.V)
		}
	}
	return g, nil
}

// Equal reports whether two graphs are identical: same node count and
// the same edges in the same creation order (which implies identical
// adjacency-list order everywhere). Used by snapshot round-trip tests.
func (g *Graph) Equal(h *Graph) bool {
	if len(g.adj) != len(h.adj) || g.edges != h.edges {
		return false
	}
	for i := 0; i < g.edges; i++ {
		if *g.order.Peek(i) != *h.order.Peek(i) {
			return false
		}
	}
	return true
}
