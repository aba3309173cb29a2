package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestMetricNamesMatchBenchmarkFile keeps the metrics a run prints in
// step with the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}

	o := &outcome{win: &window{}}
	var e2e metrics
	addEndToEnd(&e2e, nil, o)
	compare(t, "end_to_end", e2e, doc.EndToEnd)

	tr := newTracer()
	layers := spanMetrics(tr.index(), o, "monitor-steady", 1)
	layers.list = append(layers.list, counterMetrics(o, 0, 0).list...)
	addOverhead(&layers, e2e, e2e)
	compare(t, "per_layer", layers, doc.PerLayer)
}

func compare(t *testing.T, kind string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	var g, w []string
	for _, m := range got.list {
		g = append(g, m.name+" "+m.unit)
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		t.Errorf("%s metrics printed:\n%v\ndeclared:\n%v", kind, g, w)
	}
}
