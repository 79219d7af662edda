package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinyConfig shrinks every workload so the self-test runs all three, both
// untraced and traced, in well under a minute.
func tinyConfig() config {
	return config{
		channels:  2000,
		hot:       64,
		frameLen:  16,
		fps:       100,
		churnRate: 5000,
		flapChans: 100,
		setups:    2,
		warmup:    100 * time.Millisecond,
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricListsMatchBenchmarkFile pins the program's metric tables to
// BENCHMARK.json, name for name and unit for unit.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s in BENCHMARK.json has no implementation", w.Name)
		}
	}
}

// TestSelfTest runs every workload at a tiny size, untraced and traced,
// and checks that the correctness checks pass, that every named metric is
// printed with its unit, and that the traced stages add up to the latency.
func TestSelfTest(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				rep, res, err := run(tinyConfig(), w.Name, 7, time.Second, traced)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !res.Correct {
					t.Fatalf("correctness violation: %s", rep.Violation)
				}
				// Every workload is chosen so that no operation fails.
				if res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, rep.Failures)
				}
				if w.Name == "flap" && rep.DefectProbes != tinyConfig().setups {
					t.Errorf("%d defect probes, want one per set-up", rep.DefectProbes)
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				if !traced {
					for _, m := range bf.EndToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s reads %v", m.Name, res.Metrics[m.Name].Value)
						}
					}
					return
				}
				s := rep.StageSums
				if s["samples"] < 1 || s["max_abs_diff_ms"] > 1e-6 {
					t.Errorf("stages do not add up to the latency: %v", s)
				}
				for _, m := range endToEnd {
					if _, ok := rep.TraceOverhead[m.name]; !ok {
						t.Errorf("no trace overhead for %s", m.name)
					}
				}
			})
		}
	}
}
