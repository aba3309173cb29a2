package policygraph

import "sort"

// Unreachable is the distance reported between nodes in different
// components (dG = ∞ in the paper; such pairs carry no
// indistinguishability requirement, Lemma 2.1).
const Unreachable = -1

// DistancesFrom returns the BFS hop distances from s to every node.
// Unreachable nodes get Unreachable (-1).
func (g *Graph) DistancesFrom(s int) []int {
	g.check(s)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[s] = 0
	queue := make([]int, 0, 16)
	queue = append(queue, s)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// Distance returns the shortest-path length dG(u, v) (paper Def. 2.2), or
// Unreachable if u and v are disconnected.
func (g *Graph) Distance(u, v int) int {
	g.check(u)
	g.check(v)
	if u == v {
		return 0
	}
	// Bidirectional BFS.
	du := map[int]int{u: 0}
	dv := map[int]int{v: 0}
	qu, qv := []int{u}, []int{v}
	for len(qu) > 0 && len(qv) > 0 {
		if len(qu) > len(qv) {
			qu, qv = qv, qu
			du, dv = dv, du
		}
		var next []int
		for _, x := range qu {
			for _, v := range g.adj[x] {
				y := int(v)
				if d, met := dv[y]; met {
					return du[x] + 1 + d
				}
				if _, seen := du[y]; !seen {
					du[y] = du[x] + 1
					next = append(next, y)
				}
			}
		}
		qu = next
	}
	return Unreachable
}

// KNeighbors returns N^k(s): the sorted set of nodes within k hops of s,
// including s itself (paper Def. 2.3). k < 0 is treated as ∞.
func (g *Graph) KNeighbors(s, k int) []int {
	g.check(s)
	if k < 0 {
		return g.ComponentOf(s)
	}
	dist := map[int]int{s: 0}
	queue := []int{s}
	out := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == k {
			continue
		}
		for _, nb := range g.adj[u] {
			v := int(nb)
			if _, seen := dist[v]; !seen {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
				out = append(out, v)
			}
		}
	}
	sort.Ints(out)
	return out
}

// ComponentOf returns N^∞(s): the sorted connected component containing s.
func (g *Graph) ComponentOf(s int) []int {
	g.check(s)
	seen := map[int]bool{s: true}
	queue := []int{s}
	out := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[u] {
			v := int(nb)
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
				out = append(out, v)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Components returns all connected components, each sorted, ordered by
// their smallest node.
func (g *Graph) Components() [][]int {
	var comps [][]int
	// Scanning nodes in ascending order meets each component first at
	// its smallest node, with the next unused index, and appends its
	// members in ascending order.
	for u, ci := range g.ComponentIndex() {
		if ci == len(comps) {
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], u)
	}
	return comps
}

// ComponentIndex labels every node with the index of its component in the
// order returned by Components, in one BFS over the graph.
func (g *Graph) ComponentIndex() []int {
	idx := make([]int, g.n)
	for i := range idx {
		idx[i] = -1
	}
	var queue []int32
	ci := 0
	for s := range g.n {
		if idx[s] >= 0 {
			continue
		}
		idx[s] = ci
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			for _, v := range g.adj[queue[head]] {
				if idx[v] < 0 {
					idx[v] = ci
					queue = append(queue, v)
				}
			}
		}
		ci++
	}
	return idx
}

// IsConnected reports whether the graph has a single connected component
// (requires n >= 1).
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return false
	}
	return len(g.ComponentOf(0)) == g.n
}

// Diameter returns the largest finite shortest-path distance in the graph
// (the maximum over components of each component's diameter). Returns 0
// for edgeless graphs.
func (g *Graph) Diameter() int {
	best := 0
	for u, nb := range g.adj {
		if len(nb) == 0 {
			continue
		}
		for _, d := range g.DistancesFrom(u) {
			if d > best {
				best = d
			}
		}
	}
	return best
}

// AllDistances computes the full n×n hop-distance matrix (row-major),
// with Unreachable for disconnected pairs. Intended for the mechanism
// layer, which caches it per policy graph.
func (g *Graph) AllDistances() [][]int {
	out := make([][]int, g.n)
	for u := 0; u < g.n; u++ {
		out[u] = g.DistancesFrom(u)
	}
	return out
}

// DegreeHistogram returns a map from degree to node count.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, nb := range g.adj {
		h[len(nb)]++
	}
	return h
}
