package graph

import (
	"testing"

	"sybilwild/internal/stats"
)

func benchGraph(b *testing.B, n, m int) *Graph {
	b.Helper()
	r := stats.NewRand(1)
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

func BenchmarkAddEdge(b *testing.B) {
	b.ReportAllocs()
	g := New(b.N + 2)
	g.AddNodes(b.N + 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), int64(i))
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(b, 10000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(NodeID(i%10000), NodeID((i*7)%10000))
	}
}

func BenchmarkComponents(b *testing.B) {
	g := benchGraph(b, 20000, 60000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labels, _ := g.Components()
		_ = labels
	}
}

func BenchmarkClusteringFirstK(b *testing.B) {
	g := benchGraph(b, 5000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ClusteringFirstK(NodeID(i%5000), 50)
	}
}

func BenchmarkMaxFlow(b *testing.B) {
	g := benchGraph(b, 2000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		constFlow(g, 0, NodeID(1000+i%500), 1)
	}
}

func BenchmarkSnowball(b *testing.B) {
	g := benchGraph(b, 10000, 50000)
	r := stats.NewRand(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Snowball(r, []NodeID{NodeID(i % 10000)}, 100, 0.8)
	}
}

func BenchmarkRandomRoute(b *testing.B) {
	g := benchGraph(b, 10000, 50000)
	perm := NewSeededPermuter(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RandomRoute(perm, NodeID(i%10000), 50)
	}
}
