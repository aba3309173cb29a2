package policygraph

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
)

// FuzzGraphJSON is a differential fuzzer: for every input, UnmarshalJSON
// (one-pass parser with encoding/json fallback) must agree with the
// encoding/json reference decoder on accept or reject, on the error, and
// on the decoded graph. Accepted graphs must round-trip losslessly and
// re-encode to the legacy wire bytes.
func FuzzGraphJSON(f *testing.F) {
	for _, seed := range []string{
		`{"nodes":4,"edges":[[0,1],[2,3]]}`,
		`{"nodes":0,"edges":[]}`,
		`{"nodes":-1}`,
		`{"nodes":3,"edges":[[0,0]]}`,
		`garbage`,
		// Canonical form with whitespace everywhere JSON allows it.
		" {\n\t\"nodes\" : 3 ,\r\n \"edges\" : [ [ 0 , 1 ] ,\n[1,2] ] } \n",
		// Numbers: leading zeros, negative zero, fractions, exponents,
		// overflow, the most negative int, a bare minus.
		`{"nodes":007,"edges":[]}`,
		`{"nodes":3,"edges":[[0,01]]}`,
		`{"nodes":3,"edges":[[-0,1]]}`,
		`{"nodes":-0,"edges":[]}`,
		`{"nodes":3,"edges":[[1.0,2]]}`,
		`{"nodes":1e2,"edges":[]}`,
		`{"nodes":3,"edges":[[0,2E0]]}`,
		`{"nodes":99999999999999999999,"edges":[]}`,
		`{"nodes":3,"edges":[[0,9223372036854775808]]}`,
		`{"nodes":3,"edges":[[0,-9223372036854775808]]}`,
		`{"nodes":3,"edges":[[0,-]]}`,
		// Keys: reordered, unknown, other case, duplicated, escaped.
		`{"edges":[[0,1]],"nodes":2}`,
		`{"nodes":2,"extra":true,"edges":[[0,1]]}`,
		`{"NODES":2,"Edges":[[0,1]]}`,
		`{"nodes":2,"edges":[[0,1]],"nodes":3}`,
		`{"nodes":2,"edges":[[0,1]],"edges":[]}`,
		`{"\u006eodes":2,"edges":[[0,1]]}`,
		`{"nodes":2,"\u0065dges":[[0,1]]}`,
		// Shapes: null, short and long edge arrays, nulls inside.
		`{"nodes":2,"edges":null}`,
		`{"nodes":null,"edges":[]}`,
		`{"nodes":3,"edges":[[1]]}`,
		`{"nodes":3,"edges":[[0,1,2]]}`,
		`{"nodes":3,"edges":[[null,1]]}`,
		`{"nodes":3,"edges":[[0,"1"]]}`,
		// Structure: trailing commas, trailing garbage, truncation.
		`{"nodes":3,"edges":[[0,1],]}`,
		`{"nodes":3,"edges":[[0,1]],}`,
		`{"nodes":3,"edges":[[0,1]]}x`,
		`{"nodes":3,"edges":[[0,1]]}{}`,
		`{"nodes":3,"edges":[[0,1]`,
		// Semantic errors behind well-formed and malformed tails.
		`{"nodes":3,"edges":[[0,1],[1,7],[2,2]]}`,
		`{"nodes":3,"edges":[[2,2],[0,9]]}`,
		`{"nodes":3,"edges":[[0,9]],"x"}`,
		`{"nodes":-2,"edges":[[0,1]]}`,
		// Hostile node counts: refused before allocating, by both decoders.
		`{"nodes":4000000000,"edges":[]}`,
		`{"nodes":100000000000000000,"edges":[]}`,
		`{"edges":[],"nodes":100000000000000000}`,
		`{"nodes":4194305,"edges":[[0,1]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if allocatesHuge(data) {
			t.Skip("node count too large to allocate")
		}
		ref, refErr := decodeReflect(data)
		var g Graph
		err := g.UnmarshalJSON(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("UnmarshalJSON err %v, reference err %v", err, refErr)
		}
		var viaJSON Graph
		if jerr := json.Unmarshal(data, &viaJSON); (jerr == nil) != (refErr == nil) {
			t.Fatalf("json.Unmarshal err %v, reference err %v", jerr, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("UnmarshalJSON error %q, reference %q", err, refErr)
			}
			return
		}
		if !g.Equal(ref) || !viaJSON.Equal(ref) {
			t.Fatal("decoded graph differs from the reference decoding")
		}
		out, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if want, _ := json.Marshal(graphJSON{Nodes: g.n, Edges: g.Edges()}); !bytes.Equal(out, want) {
			t.Fatalf("MarshalJSON %s, legacy encoding %s", out, want)
		}
		var back Graph
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !g.Equal(&back) {
			t.Fatal("round trip not lossless")
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatal("Edges lists a non-edge")
			}
		}
	})
}

// allocatesHuge reports whether data holds a decimal integer above
// 1<<16 but at most MaxNodes. Such a node count is valid and both
// decoders would allocate an adjacency slice that large; the fuzzer
// skips those inputs rather than spend its time allocating. Larger
// integers are kept: both decoders reject them without allocating.
func allocatesHuge(data []byte) bool {
	for i := 0; i < len(data); {
		j := i
		for j < len(data) && '0' <= data[j] && data[j] <= '9' {
			j++
		}
		if j == i {
			i++
			continue
		}
		if v, err := strconv.Atoi(string(data[i:j])); err == nil && v > 1<<16 && v <= MaxNodes {
			return true
		}
		i = j
	}
	return false
}
