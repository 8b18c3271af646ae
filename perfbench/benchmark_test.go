package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The workloads and metrics the command prints must be the ones
// BENCHMARK.json declares, in the same order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type entry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, list := range []struct {
		what string
		json []entry
		code []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(list.json) != len(list.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", list.what, len(list.json), len(list.code))
		}
		for i, m := range list.code {
			if list.json[i].Name != m.name || list.json[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]",
					list.what, i, list.json[i].Name, list.json[i].Unit, m.name, m.unit)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestQueryRendering(t *testing.T) {
	want := "conf >= 0.5 and pairs >= 3 and period in 2..512 and pattern period <= 24 and levels 5 and limit 50 by conf"
	if got := serveParams.query(false); got != want {
		t.Fatalf("served query %q, want %q", got, want)
	}
	if got := walmartParams.query(true); got != "conf >= 0.5 and pairs >= 3 and period in 2..1000 and pattern period <= 168" {
		t.Fatalf("unlimited Wal-Mart query %q", got)
	}
}
