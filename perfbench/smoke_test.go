package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke run checks
// against: every metric named there must be emitted.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	var got []string
	for _, w := range spec.Workloads {
		switch def := workloadByName(w.Name); {
		case def == nil:
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		case def.Why != w.Why:
			t.Errorf("workload %q: BENCHMARK.json says why %q, the program %q", w.Name, w.Why, def.Why)
		}
		got = append(got, w.Name)
	}
	if len(got) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program defines %d", len(got), len(workloads))
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !sameSet(e2e, e2eGated) {
		t.Errorf("end_to_end %v != program's gated set %v", e2e, e2eGated)
	}
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// through the full correctness gate, and checks that it emits exactly the
// metrics BENCHMARK.json names, with their units, as finite numbers.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			window := time.Second
			if w.Outages {
				window = 8 * time.Second // long enough for a rejoin to land in it
			}
			res, err := run(w, 7, window, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("result correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			e2e := map[string]jsonMetric{}
			for _, m := range res.e2e {
				e2e[m.name] = jsonMetric{m.value, m.unit}
			}
			for _, m := range spec.EndToEnd {
				checkMetric(t, e2e, m.Name, m.Unit)
				if e2e[m.Name].Value == 0 {
					t.Errorf("end-to-end %s reads 0", m.Name)
				}
			}
			for _, name := range e2eUngated {
				if _, ok := e2e[name]; !ok {
					t.Errorf("end-to-end %s not printed", name)
				}
			}
			var names []string
			for _, m := range spec.PerLayer {
				checkMetric(t, res.Metrics, m.Name, m.Unit)
				names = append(names, m.Name)
			}
			var emitted []string
			for name := range res.Metrics {
				emitted = append(emitted, name)
			}
			if !sameSet(names, emitted) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json names %d", len(emitted), len(names))
			}
		})
	}
}

func checkMetric(t *testing.T, ms map[string]jsonMetric, name, unit string) {
	t.Helper()
	m, ok := ms[name]
	switch {
	case !ok:
		t.Errorf("metric %s not emitted", name)
	case m.Unit != unit:
		t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("metric %s = %v", name, m.Value)
	}
}

func sameSet(a, b []string) bool {
	x, y := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(x)
	sort.Strings(y)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
