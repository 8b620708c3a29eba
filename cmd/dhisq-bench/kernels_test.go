package main

import (
	"testing"

	"dhisq/internal/exp"
)

func TestBestNsPerKeepsCheapestRound(t *testing.T) {
	calls := 0
	ns := bestNsPer(3, 1000, func(iters int) {
		calls++
		if iters != 1000 {
			t.Fatalf("iters = %d, want 1000", iters)
		}
	})
	if calls != 3 {
		t.Fatalf("fn ran %d rounds, want 3", calls)
	}
	if ns < 0 {
		t.Fatalf("negative ns/iter %f", ns)
	}
}

func TestGhzBenchmarkSpec(t *testing.T) {
	spec := ghzBenchmark(17, false)
	if spec.Circuit.NumQubits != 17 {
		t.Fatalf("qubits = %d", spec.Circuit.NumQubits)
	}
	if spec.MeshW*spec.MeshH < 17 {
		t.Fatalf("mesh %dx%d cannot hold 17 controllers", spec.MeshW, spec.MeshH)
	}
}

// The shot-row harness itself is load-bearing for the kernels gates: a GHZ
// chain must read as static with every shot after the first taped, with or
// without the outcome map, the two columns must agree on the histogram,
// and the costs must be honest. "Batchable" is what the static predicate
// was called when lanes consumed it.
func TestBenchShotRowBatchable(t *testing.T) {
	for _, resetFirst := range []bool{false, true} {
		spec := ghzBenchmark(9, resetFirst)
		spec.Cfg.Seed = 11
		row, err := benchShotRow("ghz_n9", "stabilizer", spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Static || !row.TapeAsCompiled || !row.HistogramsIdentical {
			t.Fatalf("GHZ row (reset first: %v) not static, not taped or diverged: %+v", resetFirst, row)
		}
		if row.FullMsPerShot <= 0 || row.TapedMsPerShot <= 0 {
			t.Fatalf("non-positive timing in %+v", row)
		}
	}
}

// A feed-forward program's row reports static: false and replays nothing.
func TestBenchShotRowFeedForward(t *testing.T) {
	spec, err := dvqeBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	row, err := benchShotRow("dvqe_n12_c2", "statevec", spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.Static || !row.TapeAsCompiled || !row.HistogramsIdentical {
		t.Fatalf("teleporting program read as static, replayed or diverged: %+v", row)
	}
}

// redGates names the failing gates, in order.
func redGates(gates []exp.Gate) string {
	red := ""
	for _, g := range gates {
		if !g.Pass {
			red += g.Name + " "
		}
	}
	return red
}

// Each bound of the kernels experiment turns its own gate red.
func TestKernelGatesCatchRegression(t *testing.T) {
	good := func() kernelReport {
		row := func(name string, static bool, speedup float64) kernelShot {
			return kernelShot{Name: name, Static: static, Speedup: speedup, HistogramsIdentical: true, TapeAsCompiled: true}
		}
		return kernelReport{
			StatevecGeomeanSpeedup: 2.5,
			AncillaReuse:           kernelAncilla{Speedup: 3, OutcomesMatch: true},
			Shots: []kernelShot{
				row("bv_n400/8", false, 1), row("ghz_n128", true, 40), row("ghz_n128_reset", true, 1.6),
			},
		}
	}
	if red := redGates(kernelGates(good())); red != "" {
		t.Fatalf("healthy report has red gates: %s", red)
	}
	for want, doctor := range map[string]func(*kernelReport){
		"statevec_geomean ":       func(r *kernelReport) { r.StatevecGeomeanSpeedup = 1.9 },
		"ancilla_reuse ":          func(r *kernelReport) { r.AncillaReuse.Speedup = 1.5 },
		"ancilla_outcomes_match ": func(r *kernelReport) { r.AncillaReuse.OutcomesMatch = false },
		"bv_n400/8.static ":       func(r *kernelReport) { r.Shots[0].Static = true },
		"ghz_n128.static ":        func(r *kernelReport) { r.Shots[1].Static = false },
		"ghz_n128.speedup ":       func(r *kernelReport) { r.Shots[1].Speedup = 19 },
		"ghz_n128_reset.speedup ": func(r *kernelReport) { r.Shots[2].Speedup = 1.2 },
		"histograms_identical ":   func(r *kernelReport) { r.Shots[0].HistogramsIdentical = false },
		"tape_as_compiled ":       func(r *kernelReport) { r.Shots[2].TapeAsCompiled = false },
		// A row that went missing fails its gates rather than skipping them.
		"ghz_n128_reset.static ghz_n128_reset.speedup ": func(r *kernelReport) { r.Shots = r.Shots[:2] },
	} {
		rep := good()
		doctor(&rep)
		if red := redGates(kernelGates(rep)); red != want {
			t.Errorf("red gates %q, want %q", red, want)
		}
	}
}

// Each bound of the sweep experiment turns its own gate red.
func TestSweepGatesCatchRegression(t *testing.T) {
	good := sweepRecord{Name: "vqe", Speedup: 40, CacheMisses: 1, IdenticalArtifacts: true}
	if red := redGates(sweepGates([]sweepRecord{good})); red != "" {
		t.Fatalf("healthy sweep has red gates: %s", red)
	}
	slow, recompiled, drifted := good, good, good
	slow.Speedup, recompiled.CacheMisses, drifted.IdenticalArtifacts = 9, 2, false
	for want, row := range map[string]sweepRecord{
		"vqe.bind_speedup ": slow, "vqe.cache_misses ": recompiled, "vqe.identical_artifacts ": drifted,
	} {
		if red := redGates(sweepGates([]sweepRecord{row})); red != want {
			t.Errorf("red gates %q, want %q", red, want)
		}
	}
}

// The sweep experiment end to end on two points: the bind path matches
// the full compiles and the sweep compiles once, whatever the process-wide
// cache holds (the wall-clock ratio is not asserted at this size).
func TestRunSweepSmall(t *testing.T) {
	rep, err := runSweep(exp.Args{Seed: 3, Points: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows.([]sweepRecord)
	if len(rows) != 2 || len(rep.Gates) != 6 {
		t.Fatalf("%d rows, %d gates, want 2 and 6", len(rows), len(rep.Gates))
	}
	for _, r := range rows {
		if !r.IdenticalArtifacts || r.CacheMisses != 1 || r.Points != 2 {
			t.Errorf("%+v", r)
		}
	}
}
