package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the workloads and
// metrics this program runs and reports; every run checks its result line
// against the tables here, and this test checks the tables against the
// file.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit, Better string }
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(workloads))
	}
	for _, w := range file.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, table := range []struct {
		name string
		file []spec
		here []metricSpec
	}{{"end-to-end", file.EndToEnd, endToEndMetrics}, {"per-layer", file.PerLayer, perLayerMetrics}} {
		if len(table.file) != len(table.here) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d here", len(table.file), table.name, len(table.here))
		}
		for i := range min(len(table.file), len(table.here)) {
			got, want := table.file[i], table.here[i]
			if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v here", table.name, i, got, want)
			}
		}
	}
}

func TestCheckDeclared(t *testing.T) {
	specs := []metricSpec{{"a_ms", "ms", "lower"}, {"b", "count", "higher"}}
	for _, c := range []struct {
		m  map[string]metric
		ok bool
	}{
		{map[string]metric{"a_ms": {1, "ms"}, "b": {2, "count"}}, true},
		{map[string]metric{"a_ms": {1, "ms"}}, false},                                    // missing
		{map[string]metric{"a_ms": {1, "s"}, "b": {2, "count"}}, false},                  // wrong unit
		{map[string]metric{"a_ms": {1, "ms"}, "b": {2, "count"}, "c": {3, "ms"}}, false}, // undeclared
	} {
		if err := checkDeclared(c.m, specs); (err == nil) != c.ok {
			t.Errorf("checkDeclared(%v) = %v, want ok %v", c.m, err, c.ok)
		}
	}
}
