package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policy"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server/wire"
)

// legacyPolicyBody is the policy response the handlers sent before the
// graph encoding was memoised and spliced in: writeJSON over a struct
// whose graph is encoding/json's rendering of the sorted edge list.
func legacyPolicyBody(t *testing.T, user int, up policy.UserPolicy, v1 bool) []byte {
	t.Helper()
	graph, err := json.Marshal(struct {
		Nodes int      `json:"nodes"`
		Edges [][2]int `json:"edges"`
	}{up.Graph.NumNodes(), up.Graph.Edges()})
	if err != nil {
		t.Fatal(err)
	}
	var v any = wire.Policy{User: user, Epsilon: up.Epsilon, Version: up.Version, Graph: graph}
	if v1 {
		v = struct {
			User    int             `json:"user"`
			Epsilon float64         `json:"epsilon"`
			Version int             `json:"version"`
			Graph   json.RawMessage `json:"graph"`
		}{user, up.Epsilon, up.Version, graph}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	return rec.Body.Bytes()
}

// TestPolicyWireBytesUnchanged pins the GET /v1/policy and /v2/policy
// bodies byte for byte to the legacy encoding, before and after an
// infection and for epsilons encoding/json renders in each float form.
func TestPolicyWireBytesUnchanged(t *testing.T) {
	grid := geo.MustGrid(32, 32, 1)
	mgr, err := policy.NewManager(grid, policy.Baseline(grid), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(NewShardedDB(grid, 2), mgr)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	check := func(stage string, user int) {
		t.Helper()
		for _, v1 := range []bool{false, true} {
			path := fmt.Sprintf("/v2/policy?user=%d", user)
			if v1 {
				path = fmt.Sprintf("/v1/policy?user=%d", user)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s %s: status %d, content type %q", stage, path, rec.Code, rec.Header().Get("Content-Type"))
			}
			want := legacyPolicyBody(t, user, mgr.Get(user), v1)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s %s: body differs from the legacy encoding\n got %.200s\nwant %.200s", stage, path, got, want)
			}
		}
	}
	check("default", 1)
	if err := mgr.Set(2, policygraph.GridFourNeighbor(grid), 1e-7); err != nil {
		t.Fatal(err)
	}
	check("tiny epsilon", 2)
	if err := mgr.Set(3, policygraph.New(grid.NumCells()), 1.5e21); err != nil {
		t.Fatal(err)
	}
	check("huge epsilon, edgeless", 3)
	mgr.MarkInfected([]int{0, 33, 527})
	check("infected", 1)
	check("infected, late joiner", 4)
}

// BenchmarkPolicyRenegotiate is one device's renegotiation after an
// infection wave at 32×32: GET /v2/policy, decodePolicy, then building
// the GLM mechanism from the decoded graph.
func BenchmarkPolicyRenegotiate(b *testing.B) {
	client, grid, done := newBenchServer(b, 2)
	defer done()
	if _, err := client.MarkInfected([]int{100, 200}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp, err := client.Policy(i % 1000)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mechanism.New(mechanism.KindGLM, grid, cp.Graph, cp.Epsilon); err != nil {
			b.Fatal(err)
		}
	}
}
