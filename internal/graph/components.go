package graph

import "sort"

// UnionFind is a weighted-quick-union disjoint-set structure with path
// compression.
type UnionFind struct {
	parent []int32
	size   []int32
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	r := int32(x)
	for uf.parent[r] != r {
		uf.parent[r] = uf.parent[uf.parent[r]] // path halving
		r = uf.parent[r]
	}
	return int(r)
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already together).
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.size[rx] < uf.size[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = int32(rx)
	uf.size[rx] += uf.size[ry]
	return true
}

// Components labels every node with a component index in [0, k) and
// returns the label slice plus per-component sizes, computed with
// union-find. Component indices are assigned in increasing order of the
// smallest node ID they contain.
func (g *Graph) Components() (labels []int32, sizes []int) {
	uf := NewUnionFind(len(g.adj))
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if NodeID(u) < e.To {
				uf.Union(u, int(e.To))
			}
		}
	}
	labels = make([]int32, len(g.adj))
	next := int32(0)
	rootLabel := make(map[int]int32, 64)
	for u := range g.adj {
		r := uf.Find(u)
		l, ok := rootLabel[r]
		if !ok {
			l = next
			next++
			rootLabel[r] = l
			sizes = append(sizes, 0)
		}
		labels[u] = l
		sizes[l]++
	}
	return labels, sizes
}

// ComponentsBFS computes the same labelling as Components using BFS.
// It exists as an independent implementation for property testing.
func (g *Graph) ComponentsBFS() (labels []int32, sizes []int) {
	labels = make([]int32, len(g.adj))
	for i := range labels {
		labels[i] = -1
	}
	next := int32(0)
	queue := make([]NodeID, 0, 1024)
	for start := range g.adj {
		if labels[start] >= 0 {
			continue
		}
		labels[start] = next
		size := 1
		queue = append(queue[:0], NodeID(start))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.adj[u] {
				if labels[e.To] < 0 {
					labels[e.To] = next
					size++
					queue = append(queue, e.To)
				}
			}
		}
		sizes = append(sizes, size)
		next++
	}
	return labels, sizes
}

// ComponentMembers groups node IDs by component label, sorted by
// descending component size (ties broken by label).
func ComponentMembers(labels []int32, sizes []int) [][]NodeID {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if sizes[order[a]] != sizes[order[b]] {
			return sizes[order[a]] > sizes[order[b]]
		}
		return order[a] < order[b]
	})
	rank := make([]int, len(sizes))
	for r, l := range order {
		rank[l] = r
	}
	groups := make([][]NodeID, len(sizes))
	for i := range groups {
		groups[i] = make([]NodeID, 0, sizes[order[i]])
	}
	for id, l := range labels {
		groups[rank[l]] = append(groups[rank[l]], NodeID(id))
	}
	return groups
}
