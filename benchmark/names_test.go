package main

import (
	"runtime"
	"testing"
)

// The names and units the benchmark prints are the ones BENCHMARK.json
// declares, in the same order, and the workloads are the same.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		benchSpec
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the benchmark prints %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// Every count a traced repetition reports reaches the printed metrics.
func TestLayerCountsArePerLayerMetrics(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	r := &rep{tally: map[string]uint64{}}
	var ms runtime.MemStats
	for k := range r.layerCounts(ms, ms, 0) {
		if !known[k] {
			t.Errorf("count %q is not a per-layer metric", k)
		}
	}
}
