package policygraph

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// MaxNodes is the largest node universe a policy graph may have: a
// 2048×2048 grid. The decoders refuse a larger node count before
// allocating anything, so a hostile policy body cannot exhaust a
// client's memory, and servers refuse to start on a larger grid, so they
// never publish a graph their clients would refuse.
const MaxNodes = 1 << 22

// Graph is an undirected location policy graph over the node universe
// {0, …, n-1}. The zero value is not usable; construct with New.
//
// Nodes with no incident edges are "unprotected": the policy places no
// indistinguishability requirement on them, so a mechanism may release them
// exactly (paper §2.2, discussion after Lemma 2.1).
//
// Each node's neighbours are held as a strictly ascending []int32, so
// the node space is that of an int32 and a graph holds no maps; every
// accessor that walks neighbours, VisitNeighbors included, does so in
// ascending order. Decoded graphs have at most MaxNodes nodes.
//
// A Graph is not safe for concurrent mutation, but any number of
// goroutines may read it, MarshalJSON included, while nobody mutates it.
type Graph struct {
	n int
	// adj[u] is u's strictly ascending neighbour list. Lists carved from
	// one backing array (Clone, fromEdges) have their capacity clipped to
	// their length, so growing one list never writes into the next.
	adj [][]int32
	m   int // edge count

	// enc memoises MarshalJSON; every mutator clears it.
	enc atomic.Pointer[[]byte]
}

// New returns an empty policy graph over n nodes. It panics if n does
// not fit the int32 node space.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("policygraph: %d nodes exceed the int32 node space", n))
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// fromEdges returns the graph over n nodes that New(n) followed by
// AddEdge on each pair (flat[2i], flat[2i+1]) in turn builds: duplicate
// and reversed pairs collapse, self-loops are skipped. Every node must
// be in range. All neighbour lists are carved from one backing array.
func fromEdges(n int, flat []int32) *Graph {
	g := New(n)
	// pos[u+1] counts u's incidences; the prefix sum makes pos[u] the
	// start of u's list, and filling advances it to the list's end.
	pos := make([]int, n+1)
	for i := 0; i+1 < len(flat); i += 2 {
		if u, v := flat[i], flat[i+1]; u != v {
			pos[u+1]++
			pos[v+1]++
		}
	}
	for u := range n {
		pos[u+1] += pos[u]
	}
	nbr := make([]int32, pos[n])
	for i := 0; i+1 < len(flat); i += 2 {
		if u, v := flat[i], flat[i+1]; u != v {
			nbr[pos[u]] = v
			pos[u]++
			nbr[pos[v]] = u
			pos[v]++
		}
	}
	start := 0
	for u := range n {
		list := nbr[start:pos[u]]
		start = pos[u]
		slices.Sort(list)
		list = slices.Compact(list)
		g.adj[u] = list[:len(list):len(list)]
		g.m += len(list)
	}
	g.m /= 2
	return g
}

// NumNodes returns the size of the node universe.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// check panics on out-of-range nodes; policy graphs are built
// programmatically and an out-of-range node is a programming error.
func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("policygraph: node %d out of range [0,%d)", u, g.n))
	}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected
// (a location is trivially indistinguishable from itself); duplicate edges
// are ignored. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	i, dup := slices.BinarySearch(g.adj[u], int32(v))
	if dup {
		return false
	}
	g.adj[u] = slices.Insert(g.adj[u], i, int32(v))
	j, _ := slices.BinarySearch(g.adj[v], int32(u))
	g.adj[v] = slices.Insert(g.adj[v], j, int32(u))
	g.m++
	g.dropEncoding()
	return true
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether an edge was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	i, ok := slices.BinarySearch(g.adj[u], int32(v))
	if !ok {
		return false
	}
	g.adj[u] = slices.Delete(g.adj[u], i, i+1)
	j, _ := slices.BinarySearch(g.adj[v], int32(u))
	g.adj[v] = slices.Delete(g.adj[v], j, j+1)
	g.m--
	g.dropEncoding()
	return true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := slices.BinarySearch(g.adj[u], int32(v))
	return ok
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// Neighbors returns the sorted neighbor list of u (a fresh slice).
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	out := make([]int, len(g.adj[u]))
	for i, v := range g.adj[u] {
		out[i] = int(v)
	}
	return out
}

// VisitNeighbors calls fn for each neighbor of u in ascending order.
// It avoids the allocation of Neighbors for hot paths.
func (g *Graph) VisitNeighbors(u int, fn func(v int)) {
	g.check(u)
	for _, v := range g.adj[u] {
		fn(int(v))
	}
}

// above returns u's neighbours greater than u: each edge is listed once,
// from its lower end, by walking above(u) for every u.
func (g *Graph) above(u int) []int32 {
	i, _ := slices.BinarySearch(g.adj[u], int32(u))
	return g.adj[u][i:]
}

// Edges returns all edges as (u, v) pairs with u < v, sorted
// lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := range g.n {
		for _, v := range g.above(u) {
			out = append(out, [2]int{u, int(v)})
		}
	}
	return out
}

// IsolatedNodes returns the sorted list of degree-0 nodes — the locations
// the policy allows to be disclosed exactly.
func (g *Graph) IsolatedNodes() []int {
	var out []int
	for u, nb := range g.adj {
		if len(nb) == 0 {
			out = append(out, u)
		}
	}
	return out
}

// Clone returns a deep copy of g, its neighbour lists carved from one
// backing array.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	flat := make([]int32, 2*g.m)
	for u, nb := range g.adj {
		k := copy(flat, nb)
		c.adj[u] = flat[:k:k]
		flat = flat[k:]
	}
	return c
}

// Equal reports whether g and h have identical node universes and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if h == nil || g.n != h.n || g.m != h.m {
		return false
	}
	for u, nb := range g.adj {
		if !slices.Equal(nb, h.adj[u]) {
			return false
		}
	}
	return true
}

// InducedSubgraph returns a new graph over the same node universe that
// keeps only edges with both endpoints in keep. Nodes outside keep become
// isolated. This models restricting a policy to an adversary's feasible
// location set (δ-location set).
func (g *Graph) InducedSubgraph(keep []int) *Graph {
	in := make([]bool, g.n)
	for _, u := range keep {
		if u >= 0 && u < g.n {
			in[u] = true
		}
	}
	c := New(g.n)
	for u := range g.n {
		if !in[u] {
			continue
		}
		for _, v := range g.above(u) {
			if in[v] {
				c.AddEdge(u, int(v))
			}
		}
	}
	return c
}

// Union returns a new graph with the edges of both g and h (same universe
// required).
func (g *Graph) Union(h *Graph) (*Graph, error) {
	if g.n != h.n {
		return nil, fmt.Errorf("policygraph: union of mismatched universes %d vs %d", g.n, h.n)
	}
	c := g.Clone()
	for u := range h.n {
		for _, v := range h.above(u) {
			c.AddEdge(u, int(v))
		}
	}
	return c, nil
}

// Density returns 2m / (n(n-1)), the fraction of possible edges present.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return 2 * float64(g.m) / (float64(g.n) * float64(g.n-1))
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("policygraph{n=%d m=%d}", g.n, g.m)
}
