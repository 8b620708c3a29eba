package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func emitted(rep *report) []string {
	return slices.Sorted(maps.Keys(rep.Metrics))
}

// TestSmoke builds the daemon and runs every workload at a hundredth of its
// size, both passes, twice: the metric names must be exactly those of
// BENCHMARK.json, nothing may fail, and the simulated counts must repeat.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if !slices.Equal(names(file.EndToEnd), names(endToEnd)) || !slices.Equal(names(file.PerLayer), names(perLayer)) {
		t.Fatalf("BENCHMARK.json and metrics.go name different metrics")
	}
	for _, d := range file.EndToEnd {
		if d != defs[d.Name] {
			t.Errorf("%s: BENCHMARK.json %+v, metrics.go %+v", d.Name, d, defs[d.Name])
		}
	}

	dir := t.TempDir()
	bin, err := buildDaemon(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, name := range workloadNames {
		var exact [2]map[string]float64
		for run := range exact {
			exact[run] = map[string]float64{}
			for _, trace := range []bool{false, true} {
				rep, err := runWorkload(options{
					workload: name, seed: 7, seconds: 0.3, trace: trace,
					sizes: smallSizes, setupReps: 1, daemonBin: bin, workDir: dir,
				})
				if err != nil {
					t.Fatalf("%s trace=%v: %v", name, trace, err)
				}
				if rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("%s trace=%v: %d of %d failed: %v", name, trace, rep.Failed, rep.Attempted, rep.Failures)
				}
				want := names(endToEnd)
				if trace {
					want = names(perLayer)
				}
				if got := emitted(rep); !slices.Equal(got, want) {
					t.Errorf("%s trace=%v: emitted %v, want %v", name, trace, got, want)
				}
				for _, n := range append([]string{"sim_makespan_cycles"}, countNames...) {
					if v, ok := rep.Metrics[n]; ok {
						exact[run][n] = v.Value
					}
				}
				for _, n := range []string{"machine.sim_violations", "machine.sim_misalignments"} {
					if v, ok := rep.Metrics[n]; ok && v.Value != 0 {
						t.Errorf("%s: %s = %v, want 0", name, n, v.Value)
					}
				}
			}
		}
		for n, v := range exact[0] {
			if exact[1][n] != v {
				t.Errorf("%s: %s was %v, then %v with the same seed", name, n, v, exact[1][n])
			}
		}
		if len(exact[0]) != 1+len(countNames) {
			t.Errorf("%s: %d exact metrics seen, want %d", name, len(exact[0]), 1+len(countNames))
		}
	}
	// About 9 s on the reference box in a quiet minute; its speed drifts too
	// much for a deadline to be a fair assertion.
	t.Logf("smoke run took %v", time.Since(start))
}
