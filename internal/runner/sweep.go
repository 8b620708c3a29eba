package runner

import (
	"fmt"

	"dhisq/internal/compiler"
	"dhisq/internal/machine"
)

// Parameter-sweep execution: the VQE/calibration-style workload where one
// circuit skeleton is run at many rotation-angle settings. The skeleton is
// compiled exactly once under its structural fingerprint (machine.Compile
// with structural set); each point then costs one BindParams patch —
// a table copy, no re-placement, no re-scheduling — plus a Load and the
// shots themselves. Determinism mirrors Run: point k's shot stream is
// seeded from machine.DeriveSeed(base, k) (point 0 = base, so a one-point
// sweep is bit-identical to a plain run of the bound circuit), and results
// land at their point index regardless of worker count.

// SweepPoint is the outcome of one parameter setting.
type SweepPoint struct {
	Index  int
	Params map[string]float64
	Set    *ShotSet
}

// RunSweep compiles the spec's circuit once and executes `shots`
// repetitions at every parameter point, fanning points out across
// `workers` machine replicas (workers <= 0 picks GOMAXPROCS, capped at
// the point count). Each point's map must bind every symbolic parameter
// of the circuit. The returned points are ordered by point index and are
// byte-identical for every worker count.
func RunSweep(spec Spec, points []map[string]float64, shots, workers int) ([]SweepPoint, error) {
	machines, skel, err := start(spec, true, shots, len(points), workers)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return []SweepPoint{}, nil
	}
	return RunPoints(spec, machines, skel, points, shots, nil)
}

// RunPoints is the one execution entry over caller-owned replicas
// (internal/service pools them across jobs): it runs `shots` repetitions
// of every point, point k's shot stream seeded from
// machine.DeriveSeed(spec.Cfg.Seed, k). A nil point runs art as it stands —
// a plain run is the one-point list {nil}; any other point loads art
// patched with its binding. One point fans its shots out across all the
// replicas; several fan out one point per replica, each point's shots
// running where it was loaded. Results land at their point index, so the
// merge never depends on completion order, and on error the lowest failing
// index is reported.
//
// observe (when non-nil) is called once per finished point, in completion
// order — which under multiple replicas is not point order, and may be
// concurrent (the observer must be safe to call from several worker
// goroutines) — with the same value that lands in the returned slice.
// This is the streaming hook: internal/service publishes each observed
// point to /v1/jobs/{id}/stream watchers while the sweep is still running.
func RunPoints(spec Spec, machines []*machine.Machine, art *compiler.Compiled, points []map[string]float64, shots int, observe func(SweepPoint)) ([]SweepPoint, error) {
	if len(machines) == 0 || art == nil {
		return nil, fmt.Errorf("runner: RunPoints with no machines or no compiled artifact")
	}
	out := make([]SweepPoint, len(points))
	runPoint := func(on []*machine.Machine, k int) (err error) {
		bound := art
		if points[k] != nil {
			if bound, err = art.BindParams(points[k]); err != nil {
				return err
			}
		}
		for _, m := range on {
			if m.Loaded() == bound {
				continue // a warm replica of a plain job: nothing to install
			}
			if err := m.Load(bound); err != nil {
				return err
			}
		}
		set, err := RunOn(on, machine.DeriveSeed(spec.Cfg.Seed, k), shots, spec.Circuit.NumBits)
		if err != nil {
			return err
		}
		out[k] = SweepPoint{Index: k, Params: points[k], Set: set}
		if observe != nil {
			observe(out[k])
		}
		return nil
	}
	var err error
	if len(points) == 1 {
		err = runPoint(machines, 0)
	} else {
		err = fanOut(machines, len(points), func(m *machine.Machine, k int) error {
			if err := runPoint([]*machine.Machine{m}, k); err != nil {
				return fmt.Errorf("runner: point %d: %w", k, err)
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
