package runner

import (
	"reflect"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
	"dhisq/internal/workloads"
)

func sweepSpec(n, layers int) (Spec, []map[string]float64) {
	c := workloads.VQEAnsatz(n, layers)
	cfg := machine.DefaultConfig(n)
	cfg.Seed = 11
	points := make([]map[string]float64, 5)
	for k := range points {
		points[k] = workloads.VQEAnsatzPoint(n, layers, k)
	}
	return Spec{Circuit: c, MeshW: (n + 1) / 2, MeshH: 2, Cfg: cfg}, points
}

// TestRunSweepCompilesOnce: an N-point sweep charges the shared cache
// exactly one compile, and a repeat sweep charges none.
func TestRunSweepCompilesOnce(t *testing.T) {
	spec, points := sweepSpec(7, 1)
	// A cache of its own: the count holds under -count=N and any test
	// order, which a shape no other test happens to compile would not.
	cache := artifact.New(8)
	spec.Cfg.Artifacts = cache
	if _, err := RunSweep(spec, points, 2, 2); err != nil {
		t.Fatal(err)
	}
	mid := cache.Stats()
	if mid.Misses != 1 {
		t.Fatalf("first sweep compiled %d times, want 1", mid.Misses)
	}
	if _, err := RunSweep(spec, points, 2, 2); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses - mid.Misses; got != 0 {
		t.Fatalf("repeat sweep compiled %d times, want 0", got)
	}
}

// TestRunSweepRejectsBadPoints: a point missing a parameter fails with
// the lowest failing index, and a plain Run of a skeleton is rejected.
func TestRunSweepRejectsBadPoints(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	points[2] = map[string]float64{"t0_0": 1} // incomplete
	if _, err := RunSweep(spec, points, 1, 2); err == nil {
		t.Fatal("incomplete point accepted")
	}
	if _, err := Run(spec, 1, 1); err == nil {
		t.Fatal("running an unbound skeleton accepted")
	}
}

// TestRunSweepEdgeCases: degenerate inputs fail (or no-op) cleanly.
func TestRunSweepEdgeCases(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	if out, err := RunSweep(spec, nil, 4, 2); err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: %v %v", out, err)
	}
	if _, err := RunSweep(Spec{}, points, 1, 1); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if _, err := RunSweep(spec, points, -1, 1); err == nil {
		t.Fatal("negative shots accepted")
	}
	if _, err := RunPoints(nil, nil, spec.Cfg.Seed, points, 1, Observer{}); err == nil {
		t.Fatal("no machines accepted")
	}
	machines, skel, err := start(spec, true, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPoints(machines, nil, spec.Cfg.Seed, points, 1, Observer{}); err == nil {
		t.Fatal("nil skeleton accepted")
	}
	// Zero shots: points come back with zero tallies, deterministically.
	out, err := RunPoints(machines, skel, spec.Cfg.Seed, points, 0, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(points) || !reflect.DeepEqual(out[0], Tally{}) {
		t.Fatalf("zero-shot sweep malformed: %+v", out)
	}
}

// TestRunSweepHonoursSchedule: a sweep compiles its skeleton under
// Cfg.Padded like every other run, and the flag visibly takes: the padded
// replay is slower than the advance-booked one at every point.
func TestRunSweepHonoursSchedule(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	fixed, err := RunSweep(spec, points, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cfg.Padded = true
	padded, err := RunSweep(spec, points, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, pt := range padded {
		if got, base := pt.Set.Shots[0].Result.Makespan, fixed[k].Set.Shots[0].Result.Makespan; got <= base {
			t.Fatalf("point %d: padded makespan %d not above fixed %d — the sweep dropped Cfg.Padded", k, got, base)
		}
	}
}
