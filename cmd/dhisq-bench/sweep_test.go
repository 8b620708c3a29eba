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

// Each bound of the sweep experiment turns its own gate red, and the
// wall-clock ratio turns none.
func TestSweepGatesCatchRegression(t *testing.T) {
	good := sweepRecord{Name: "vqe", Speedup: 40, CacheMisses: 1, IdenticalArtifacts: true}
	slow := good
	slow.Speedup = 0.5
	for _, healthy := range []sweepRecord{good, slow} {
		if red := redGates(sweepGates([]sweepRecord{healthy})); red != "" {
			t.Fatalf("healthy sweep %+v has red gates: %s", healthy, red)
		}
	}
	recompiled, drifted := good, good
	recompiled.CacheMisses, drifted.IdenticalArtifacts = 2, false
	for want, row := range map[string]sweepRecord{
		"vqe.cache_misses ": recompiled, "vqe.identical_artifacts ": drifted,
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
	if len(rows) != 2 || len(rep.Gates) != 4 {
		t.Fatalf("%d rows, %d gates, want 2 and 4", len(rows), len(rep.Gates))
	}
	for _, r := range rows {
		if !r.IdenticalArtifacts || r.CacheMisses != 1 || r.Points != 2 {
			t.Errorf("%+v", r)
		}
	}
}
