package dag

import (
	"math/rand"
	"sort"
	"testing"
)

// referenceTopoOrder is the quadratic scan TopoOrder replaced: a ready
// list ordered by a linear min-scan over a pointer-keyed indegree map.
func referenceTopoOrder(g *Graph) []*Node {
	indeg := make(map[*Node]int, len(g.nodes))
	var ready []*Node
	count := 0
	for _, n := range g.nodes {
		if n == nil {
			continue
		}
		count++
		indeg[n] = len(n.in)
		if len(n.in) == 0 {
			ready = append(ready, n)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].id < ready[j].id })
	order := make([]*Node, 0, count)
	for len(ready) > 0 {
		min := 0
		for i := 1; i < len(ready); i++ {
			if ready[i].id < ready[min].id {
				min = i
			}
		}
		n := ready[min]
		ready = append(ready[:min], ready[min+1:]...)
		order = append(order, n)
		for _, e := range n.out {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(order) != count {
		panic("dag: TopoOrder on cyclic graph")
	}
	return order
}

// randomTopoDAG builds a seeded random DAG whose edges run from lower to
// higher creation index, in shuffled order and with parallel edges, then
// deletes some nodes with their edges, leaving nil node slots.
func randomTopoDAG(rng *rand.Rand, n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(Mix, "")
	}
	perm := rng.Perm(n) // topological rank of each node, independent of id
	byRank := make([]*Node, n)
	for id, r := range perm {
		byRank[r] = g.nodes[id]
	}
	for e := rng.Intn(4 * n); e > 0; e-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		g.AddEdge(byRank[a], byRank[b], 1)
	}
	for d := rng.Intn(n/4 + 1); d > 0; d-- {
		victim := g.nodes[rng.Intn(n)]
		if victim == nil {
			continue
		}
		for _, e := range append(append([]*Edge(nil), victim.in...), victim.out...) {
			g.removeEdge(e)
		}
		g.nodes[victim.id] = nil
	}
	g.compactEdges()
	return g
}

// TopoOrder takes ready nodes from a bitset; the order must equal the
// quadratic scan's, smallest ready id first, node for node.
func TestTopoOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nilSlots := 0
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(200)
		if i%500 == 0 {
			n = 3*4096 + rng.Intn(4096) // ids span several summary words
		}
		g := randomTopoDAG(rng, n)
		for _, n := range g.nodes {
			if n == nil {
				nilSlots++
			}
		}
		got, want := g.TopoOrder(), referenceTopoOrder(g)
		if len(got) != len(want) {
			t.Fatalf("graph %d: %d nodes ordered, reference orders %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("graph %d: position %d holds node %d, reference has node %d", i, k, got[k].id, want[k].id)
			}
		}
	}
	if nilSlots == 0 {
		t.Fatal("no graph had a deleted node")
	}
}
