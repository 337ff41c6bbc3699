package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogMatchesBenchmarkFile checks that the metrics the program emits
// are the ones BENCHMARK.json declares, with the same units and direction,
// and that every per-layer entry names an end-to-end metric and a workload
// that exist.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	workloadSet := map[string]bool{}
	for _, w := range f.Workloads {
		workloadSet[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(f.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range f.EndToEnd {
		e2e[m.Name] = true
		if i < len(endToEnd) && (endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit || endToEnd[i].better != m.Better) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s %s %s, the program %+v", i, m.Name, m.Unit, m.Better, endToEnd[i])
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if i < len(perLayer) && (perLayer[i].name != m.Name || perLayer[i].unit != m.Unit || perLayer[i].better != m.Better) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s %s %s, the program %+v", i, m.Name, m.Unit, m.Better, perLayer[i])
		}
	}
	for _, m := range perLayer {
		if !e2e[m.moves] {
			t.Errorf("per-layer %s moves %q, which is not an end-to-end metric", m.name, m.moves)
		}
		if !workloadSet[m.on] {
			t.Errorf("per-layer %s names workload %q, which does not exist", m.name, m.on)
		}
	}
}

// TestWorkloadsTiny runs every workload end to end at a tiny size, untraced
// and traced, and checks that each emits every metric BENCHMARK.json
// declares with its unit, that every output check passed, and that the CPU
// shares of the traced run sum to about 1.
func TestWorkloadsTiny(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				res, err := run([]string{"--workload", w.Name, "--tiny", "--seconds", "1",
					"--trace", trace, "--workdir", t.TempDir()}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				type def struct{ Name, Unit string }
				var want []def
				if trace == "0" {
					for _, m := range f.EndToEnd {
						want = append(want, def{m.Name, m.Unit})
					}
				} else {
					for _, m := range f.PerLayer {
						want = append(want, def{m.Name, m.Unit})
					}
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s is %v", m.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(want))
				}
				if trace == "0" {
					for _, m := range f.EndToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
					return
				}
				var shares float64
				for name, m := range res.Metrics {
					if strings.HasPrefix(name, "cpu_share.") {
						shares += m.Value
					}
				}
				if math.Abs(shares-1) > 0.01 {
					t.Errorf("cpu_share.* sums to %v, want about 1", shares)
				}
			})
		}
	}
}
