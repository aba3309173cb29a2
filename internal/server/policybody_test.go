package server

import (
	"math"
	"strconv"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/policygraph"
)

// serverPolicyBodies returns real GET /v2/policy bodies from an 8×8
// server: before and after an infection, for epsilons encoding/json
// renders in each float form.
func serverPolicyBodies(tb testing.TB) [][]byte {
	tb.Helper()
	grid := geo.MustGrid(8, 8, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(NewShardedDB(grid, 2), mgr)
	if err != nil {
		tb.Fatal(err)
	}
	if err := mgr.Set(2, policygraph.GridFourNeighbor(grid), 1e-7); err != nil {
		tb.Fatal(err)
	}
	if err := mgr.Set(3, policygraph.New(grid.NumCells()), 1.5e21); err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	add := func() {
		for user := 1; user <= 3; user++ {
			body, err := srv.policyBody(user)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, body)
		}
	}
	add()
	mgr.MarkInfected([]int{0, 9, 27})
	add()
	return out
}

// TestSplitPolicyBodyTakesServerForm pins that what the server sends is
// decoded by the one-scan path, not the reference fallback, and to the
// reference's values.
func TestSplitPolicyBodyTakesServerForm(t *testing.T) {
	for _, body := range serverPolicyBodies(t) {
		got, ok := splitPolicyBody(body)
		if !ok {
			t.Fatalf("server body %.80q fell back to the reference decoding", body)
		}
		want, err := decodePolicyReference(body)
		if err != nil {
			t.Fatal(err)
		}
		samePolicy(t, got, want)
	}
}

// samePolicy fails t unless a and b decode to the same policy, epsilon
// compared bit for bit.
func samePolicy(t *testing.T, a, b ClientPolicy) {
	t.Helper()
	if a.User != b.User || a.Version != b.Version || math.Float64bits(a.Epsilon) != math.Float64bits(b.Epsilon) {
		t.Fatalf("decoded (user %d, version %d, epsilon %v), reference (user %d, version %d, epsilon %v)",
			a.User, a.Version, a.Epsilon, b.User, b.Version, b.Epsilon)
	}
	if (a.Graph == nil) != (b.Graph == nil) || (a.Graph != nil && !a.Graph.Equal(b.Graph)) {
		t.Fatalf("decoded graph %v, reference graph %v", a.Graph, b.Graph)
	}
}

// FuzzPolicyBody is a differential fuzzer: for every input,
// decodePolicyBody must agree with the reference decoding (json.Decoder
// into wire.Policy, then decodePolicy) on accept or reject, on the
// error, and on every decoded field.
func FuzzPolicyBody(f *testing.F) {
	for _, body := range serverPolicyBodies(f) {
		f.Add(body)
	}
	for _, seed := range []string{
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":2,"edges":[[0,1]]}}`,
		// Keys reordered, in upper case, or missing; graph null or empty.
		`{"epsilon":1,"user":1,"version":1,"graph":{"nodes":2,"edges":[[0,1]]}}`,
		`{"USER":1,"Epsilon":1,"version":1,"graph":{"nodes":2,"edges":[[0,1]]}}`,
		`{"user":1,"epsilon":1,"version":1}`,
		`{"user":1,"epsilon":1,"version":1,"graph":null}`,
		`{"user":1,"epsilon":1,"version":1,"graph":{}}`,
		`{"user":1,"epsilon":1,"version":1,"graph":}`,
		// Whitespace everywhere JSON allows it.
		" {\n\"user\" : 1 ,\t\"epsilon\" :1, \"version\":\r1 , \"graph\" : { \"nodes\" : 2 , \"edges\" : [ [ 0 , 1 ] ] } } \n",
		`{"user":1,"epsilon":1,"version":1,"graph": {"nodes":2,"edges":[[0,1]]} }`,
		// Trailing garbage after the closing brace: the reference ignores it.
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":2,"edges":[[0,1]]}}x`,
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":2,"edges":[[0,1]]}}}`,
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":2,"edges":[[0,1]]}} {}`,
		// Numbers: negative zero, 19 and 20 digits, fractions and
		// exponents on ints, out-of-range and odd floats.
		`{"user":-0,"epsilon":-0,"version":-0,"graph":{"nodes":0,"edges":[]}}`,
		`{"user":9223372036854775807,"epsilon":1,"version":1,"graph":{"nodes":0,"edges":[]}}`,
		`{"user":9223372036854775808,"epsilon":1,"version":1,"graph":{"nodes":0,"edges":[]}}`,
		`{"user":1.0,"epsilon":1,"version":1e0,"graph":{"nodes":0,"edges":[]}}`,
		`{"user":1,"epsilon":1e400,"version":1,"graph":{"nodes":0,"edges":[]}}`,
		`{"user":1,"epsilon":1e-400,"version":1,"graph":{"nodes":0,"edges":[]}}`,
		`{"user":1,"epsilon":0.1E+2,"version":1,"graph":{"nodes":0,"edges":[]}}`,
		`{"user":01,"epsilon":.5,"version":+1,"graph":{"nodes":0,"edges":[]}}`,
		`{"user":1,"epsilon":0x1p-2,"version":1,"graph":{"nodes":0,"edges":[]}}`,
		`{"user":1,"epsilon":1.,"version":1,"graph":{"nodes":0,"edges":[]}}`,
		// A '}' inside the graph, and a graph the envelope's last brace
		// would cut short.
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":2,"edges":[[0,1]],"x":{}}}`,
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":2},"extra":{}}`,
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":2,"edges":[[0,1]]},"graph":null}`,
		// Bad graphs and hostile node counts.
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":2,"edges":[[0,2]]}}`,
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":4000000000,"edges":[]}}`,
		`{"user":1,"epsilon":1,"version":1,"graph":{"nodes":100000000000000000,"edges":[]}}`,
		``,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if allocatesHuge(body) {
			t.Skip("node count too large to allocate")
		}
		got, err := decodePolicyBody(body)
		want, refErr := decodePolicyReference(body)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodePolicyBody err %v, reference err %v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("decodePolicyBody error %q, reference %q", err, refErr)
			}
			return
		}
		samePolicy(t, got, want)
	})
}

// allocatesHuge reports whether data holds a decimal integer above
// 1<<16 but at most policygraph.MaxNodes: as a node count it is valid,
// and decoding it would spend the fuzzer's time allocating.
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
		if v, err := strconv.Atoi(string(data[i:j])); err == nil && v > 1<<16 && v <= policygraph.MaxNodes {
			return true
		}
		i = j
	}
	return false
}
