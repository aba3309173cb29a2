package policygraph

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/pglp/panda/internal/geo"
)

// checkAdjacency fails t unless every neighbour list of g is strictly
// ascending, in range, free of self-loops and symmetric, and the lists
// account for exactly NumEdges edges.
func checkAdjacency(t *testing.T, g *Graph) {
	t.Helper()
	total := 0
	for u, nb := range g.adj {
		for i, v := range nb {
			if v < 0 || int(v) >= g.n || int(v) == u {
				t.Fatalf("node %d: neighbour %d out of range or a self-loop", u, v)
			}
			if i > 0 && nb[i-1] >= v {
				t.Fatalf("node %d: neighbours %v not strictly ascending", u, nb)
			}
			if _, ok := slices.BinarySearch(g.adj[v], int32(u)); !ok {
				t.Fatalf("edge %d-%d is not symmetric", u, v)
			}
		}
		total += len(nb)
	}
	if total != 2*g.m {
		t.Fatalf("lists hold %d incidences, NumEdges is %d", total, g.m)
	}
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := range 300 {
		n := 1 + rng.IntN(40)
		pairs := rng.IntN(5 * n)
		flat := make([]int32, 0, 2*pairs)
		want := New(n)
		for range pairs {
			u, v := rng.IntN(n), rng.IntN(n)
			if rng.IntN(4) == 0 && len(flat) > 0 {
				// Repeat an earlier pair, possibly reversed.
				i := 2 * rng.IntN(len(flat)/2)
				u, v = int(flat[i]), int(flat[i+1])
				if rng.IntN(2) == 0 {
					u, v = v, u
				}
			}
			flat = append(flat, int32(u), int32(v))
			want.AddEdge(u, v)
		}
		got := fromEdges(n, flat)
		checkAdjacency(t, got)
		if !got.Equal(want) {
			t.Fatalf("trial %d: fromEdges %v, AddEdge %v", trial, got.Edges(), want.Edges())
		}
		if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
			t.Fatalf("trial %d: encodings differ", trial)
		}
	}
}

// snapshot deep-copies every neighbour list of g.
func snapshot(g *Graph) [][]int32 {
	out := make([][]int32, g.n)
	for u, nb := range g.adj {
		out[u] = slices.Clone(nb)
	}
	return out
}

// TestCarvedListsIndependent mutates graphs whose lists share one
// backing array (decoded, cloned, isolated) and checks that only the
// lists of the edited edge's endpoints change, and that the graph the
// copy came from does not change at all.
func TestCarvedListsIndependent(t *testing.T) {
	grid := geo.MustGrid(8, 8, 1)
	base := GridEightNeighbor(grid)
	decoded := new(Graph)
	if err := decoded.UnmarshalJSON(mustMarshal(t, base)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  *Graph // the graph the copy was made from, nil if none
		g    *Graph
	}{
		{"decoded", nil, decoded},
		{"clone", base, base.Clone()},
		{"isolated", base, IsolateNodes(base, []int{0, 27})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var srcBefore [][]int32
			var srcJSON []byte
			if tc.src != nil {
				srcBefore, srcJSON = snapshot(tc.src), bytes.Clone(mustMarshal(t, tc.src))
			}
			g := tc.g
			for _, e := range []struct {
				add  bool
				u, v int
			}{
				{true, 20, 63}, {true, 21, 22 + 8}, {false, 20, 21}, {false, 36, 45}, {true, 36, 0},
			} {
				before := snapshot(g)
				if e.add {
					g.AddEdge(e.u, e.v)
				} else {
					g.RemoveEdge(e.u, e.v)
				}
				checkAdjacency(t, g)
				if g.HasEdge(e.u, e.v) != e.add {
					t.Fatalf("edge %d-%d present %v after the edit", e.u, e.v, !e.add)
				}
				for w, nb := range g.adj {
					if w != e.u && w != e.v && !slices.Equal(nb, before[w]) {
						t.Fatalf("editing %d-%d changed node %d: %v -> %v", e.u, e.v, w, before[w], nb)
					}
				}
			}
			if tc.src == nil {
				return
			}
			for w, nb := range tc.src.adj {
				if !slices.Equal(nb, srcBefore[w]) {
					t.Fatalf("editing the copy changed the source at node %d", w)
				}
			}
			if !bytes.Equal(mustMarshal(t, tc.src), srcJSON) {
				t.Fatal("editing the copy changed the source's encoding")
			}
		})
	}
}

func TestVisitNeighborsAscending(t *testing.T) {
	g := New(10)
	for _, v := range []int{7, 2, 9, 0, 5, 3} {
		g.AddEdge(4, v)
	}
	decoded := new(Graph)
	if err := decoded.UnmarshalJSON([]byte(`{"nodes":10,"edges":[[4,9],[7,4],[4,0],[2,4],[4,5],[3,4]]}`)); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Graph{"built": g, "decoded": decoded} {
		var got []int
		h.VisitNeighbors(4, func(v int) { got = append(got, v) })
		if want := []int{0, 2, 3, 5, 7, 9}; !slices.Equal(got, want) {
			t.Errorf("%s: VisitNeighbors order %v, want %v", name, got, want)
		}
	}
}

// TestUnmarshalJSONAllocs pins the decoder's allocations on the policy
// a device fetches: a handful of slices, not one map per node.
func TestUnmarshalJSONAllocs(t *testing.T) {
	data := mustMarshal(t, GridEightNeighbor(geo.MustGrid(32, 32, 1)))
	allocs := testing.AllocsPerRun(20, func() {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("UnmarshalJSON of the 32x32 grid-8 policy: %.0f allocations, want at most 8", allocs)
	}
}

// TestHostileNodeCountsRefused feeds node counts that would exhaust
// memory or overflow a slice length: both decoders must return an
// error, and must not panic or allocate.
func TestHostileNodeCountsRefused(t *testing.T) {
	for _, in := range []string{
		`{"nodes":4000000000,"edges":[]}`,
		`{"nodes":100000000000000000,"edges":[]}`,
		`{"edges":[],"nodes":100000000000000000}`,
		`{"nodes":` + strconv.Itoa(MaxNodes+1) + `,"edges":[[0,1]]}`,
	} {
		for name, decode := range map[string]func([]byte) (*Graph, error){
			"decodeReflect": decodeReflect,
			"UnmarshalJSON": func(b []byte) (*Graph, error) {
				var g Graph
				return &g, g.UnmarshalJSON(b)
			},
		} {
			if _, err := decode([]byte(in)); err == nil || !strings.Contains(err.Error(), "above MaxNodes") {
				t.Errorf("%s(%s): error %v, want the MaxNodes refusal", name, in, err)
			}
		}
	}
}

func TestNewPanicsBeyondInt32(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int cannot exceed the int32 node space")
	}
	defer func() {
		if recover() == nil {
			t.Error("New above math.MaxInt32 nodes did not panic")
		}
	}()
	n := math.MaxInt32
	New(n + 1)
}
