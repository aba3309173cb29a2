package policygraph

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"github.com/pglp/panda/internal/geo"
)

// legacyJSON is the encoding MarshalJSON replaced: encoding/json over
// the sorted edge list. The wire bytes must not change.
func legacyJSON(t *testing.T, g *Graph) []byte {
	t.Helper()
	b, err := json.Marshal(graphJSON{Nodes: g.n, Edges: g.Edges()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustMarshal(t *testing.T, g *Graph) []byte {
	t.Helper()
	b, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMarshalJSONWireBytesUnchanged(t *testing.T) {
	grid := geo.MustGrid(32, 32, 1)
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"grid8-32x32", GridEightNeighbor(grid)},
		{"grid8-isolated", IsolateNodes(GridEightNeighbor(grid), []int{0, 33, 527, 1023})},
		{"empty-universe", New(0)},
		{"edgeless", New(7)},
		{"complete", Complete(12, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := legacyJSON(t, tc.g)
			if got := mustMarshal(t, tc.g); !bytes.Equal(got, want) {
				t.Fatalf("MarshalJSON differs from the legacy encoding:\n got %.120s\nwant %.120s", got, want)
			}
			// Through encoding/json (which compacts Marshaler output) too.
			if got, err := json.Marshal(tc.g); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("json.Marshal differs from the legacy encoding (err %v)", err)
			}
		})
	}
}

func TestMarshalJSONMemoised(t *testing.T) {
	g := GridEightNeighbor(geo.MustGrid(4, 4, 1))
	a, b := mustMarshal(t, g), mustMarshal(t, g)
	if &a[0] != &b[0] {
		t.Fatal("second MarshalJSON re-encoded instead of returning the memo")
	}
	if cap(a) != len(a) {
		t.Fatal("memoised bytes have spare capacity: a caller's append would write into them")
	}
}

func TestMarshalJSONMemoInvalidated(t *testing.T) {
	other := Path(3)
	for _, tc := range []struct {
		name   string
		mutate func(g *Graph) error
	}{
		{"AddEdge", func(g *Graph) error { g.AddEdge(0, 15); return nil }},
		{"RemoveEdge", func(g *Graph) error { g.RemoveEdge(0, 1); return nil }},
		{"UnmarshalJSON", func(g *Graph) error { return g.UnmarshalJSON(mustMarshal(t, other)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := GridEightNeighbor(geo.MustGrid(4, 4, 1))
			before := bytes.Clone(mustMarshal(t, g))
			if err := tc.mutate(g); err != nil {
				t.Fatal(err)
			}
			got := mustMarshal(t, g)
			if bytes.Equal(got, before) {
				t.Fatal("MarshalJSON returned the pre-mutation encoding")
			}
			if want := legacyJSON(t, g); !bytes.Equal(got, want) {
				t.Fatalf("after %s: got %s, want %s", tc.name, got, want)
			}
		})
	}
}

// TestMarshalJSONConcurrent shares one graph between goroutines that
// all encode it at once, as the server's policy handlers do; run it
// under -race.
func TestMarshalJSONConcurrent(t *testing.T) {
	g := GridEightNeighbor(geo.MustGrid(32, 32, 1))
	want := legacyJSON(t, g)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				b, err := g.MarshalJSON()
				if err != nil || !bytes.Equal(b, want) {
					errs <- "concurrent MarshalJSON returned the wrong bytes"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestDecodeFastTakesCanonicalForms pins that the one-pass parser, not
// the encoding/json fallback, handles what the server sends, with or
// without whitespace.
func TestDecodeFastTakesCanonicalForms(t *testing.T) {
	g := IsolateNodes(GridEightNeighbor(geo.MustGrid(8, 8, 1)), []int{9, 10})
	var indented bytes.Buffer
	if err := json.Indent(&indented, mustMarshal(t, g), " ", "\t"); err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{
		mustMarshal(t, g),
		indented.Bytes(),
		[]byte(" {\"nodes\" :\r\n0 , \"edges\":[ ] }\n"),
		[]byte(`{"nodes":3,"edges":[[0,2],[2,1],[0,1]]}`),
	} {
		h, err := decodeFast(in)
		if err != nil {
			t.Fatalf("decodeFast(%.60q): %v", in, err)
		}
		ref, err := decodeReflect(in)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Equal(ref) {
			t.Fatalf("decodeFast(%.60q) disagrees with encoding/json", in)
		}
	}
}

func TestUnmarshalJSONErrorLeavesGraph(t *testing.T) {
	g := Path(3)
	want := bytes.Clone(mustMarshal(t, g))
	for _, bad := range []string{`{"nodes":3,"edges":[[0,1],[1,7]]}`, `{"nodes":3,"edges":[[0,1]`} {
		if err := g.UnmarshalJSON([]byte(bad)); err == nil {
			t.Fatalf("accepted %s", bad)
		}
		if got := mustMarshal(t, g); !bytes.Equal(got, want) {
			t.Fatalf("rejected %s still changed the graph to %s", bad, got)
		}
	}
}

func BenchmarkGraphMarshalJSON(b *testing.B) {
	g := IsolateNodes(GridEightNeighbor(geo.MustGrid(32, 32, 1)), []int{100, 200})
	b.ReportAllocs()
	for b.Loop() {
		g.enc.Store(nil)
		if _, err := g.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphUnmarshalJSON(b *testing.B) {
	data, err := IsolateNodes(GridEightNeighbor(geo.MustGrid(32, 32, 1)), []int{100, 200}).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
