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

// TestRunSweepDeterministicAcrossWorkers: the merged sweep is
// byte-identical for every worker count, and every point carries real
// sampled outcomes.
func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	w1, err := RunSweep(spec, points, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	w3, err := RunSweep(spec, points, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1, w3) {
		t.Fatal("sweep results differ across worker counts")
	}
	for k, pt := range w1 {
		if pt.Index != k || len(pt.Set.Shots) != 8 {
			t.Fatalf("point %d malformed: %+v", k, pt)
		}
	}
}

// TestRunSweepMatchesBoundRuns: point k of a sweep is bit-identical to a
// plain Run of the circuit bound at point k with the derived point seed —
// the bind path changes cost, never results.
func TestRunSweepMatchesBoundRuns(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	sweep, err := RunSweep(spec, points, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, pt := range sweep {
		bound, err := spec.Circuit.Bind(points[k])
		if err != nil {
			t.Fatal(err)
		}
		bs := spec
		bs.Circuit = bound
		bs.Cfg.Seed = machine.DeriveSeed(spec.Cfg.Seed, k)
		want, err := Run(bs, 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt.Set, want) {
			t.Fatalf("point %d differs from a plain run of the bound circuit", k)
		}
	}
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
	if _, err := RunPoints(spec, nil, nil, points, 1, nil); err == nil {
		t.Fatal("no machines accepted")
	}
	machines, skel, err := start(spec, true, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPoints(spec, machines, nil, points, 1, nil); err == nil {
		t.Fatal("nil skeleton accepted")
	}
	// Zero shots: points come back with empty sets, deterministically.
	out, err := RunPoints(spec, machines, skel, points, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(points) || len(out[0].Set.Shots) != 0 {
		t.Fatalf("zero-shot sweep malformed: %+v", out)
	}
}

// TestRunSweepHonoursSchedule: a sweep compiles its skeleton under
// Cfg.Schedule like every other run — each point is bit-identical to a
// plain Run of the bound circuit under the same policy, and the policy
// visibly took (the padded replay is slower than the fixed one).
func TestRunSweepHonoursSchedule(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	fixed, err := RunSweep(spec, points, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cfg.Schedule = "padded"
	padded, err := RunSweep(spec, points, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, pt := range padded {
		bound, err := spec.Circuit.Bind(points[k])
		if err != nil {
			t.Fatal(err)
		}
		bs := spec
		bs.Circuit = bound
		bs.Cfg.Seed = machine.DeriveSeed(spec.Cfg.Seed, k)
		want, err := Run(bs, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt.Set, want) {
			t.Fatalf("point %d differs from a plain padded run of the bound circuit", k)
		}
		if got, base := pt.Set.Shots[0].Result.Makespan, fixed[k].Set.Shots[0].Result.Makespan; got <= base {
			t.Fatalf("point %d: padded makespan %d not above fixed %d — the sweep dropped Cfg.Schedule", k, got, base)
		}
	}
}
