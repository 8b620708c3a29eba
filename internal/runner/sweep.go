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
// the point count, or at the shots for a lone point, whose shots RunPoints
// fans out). Each point's map must bind every symbolic parameter of the
// circuit. The returned points are ordered by point index, keep every
// shot, and are byte-identical for every worker count.
func RunSweep(spec Spec, points []map[string]float64, shots, workers int) ([]SweepPoint, error) {
	units := len(points)
	if units == 1 {
		units = max(shots, 1)
	}
	machines, skel, err := start(spec, true, shots, units, workers)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(points))
	if len(points) == 0 {
		return out, nil
	}
	for k := range out {
		out[k] = SweepPoint{Index: k, Params: points[k], Set: &ShotSet{Shots: make([]Shot, shots), NumBits: spec.Circuit.NumBits}}
	}
	keep := func(k int, s Shot) { out[k].Set.Shots[s.Index] = s }
	if _, err := RunPoints(machines, skel, spec.Cfg.Seed, points, shots, Observer{Shot: keep}); err != nil {
		return nil, err
	}
	return out, nil
}

// Observer is what a caller of RunPoints sees while the points run: Point
// gets point k's tally as the point finishes (internal/service streams it
// to /v1/jobs/{id}/stream watchers), Shot every shot of point k — the only
// way a per-shot record outlives its shot. Either may be nil. Both are
// called from the replicas' goroutines, concurrently and in completion
// order, which is not index order. With Shot nil a shot's Result is read
// only by the tally, so past each point's shot 0 the shots go through
// machine.TallyShot: on the seeded backend their bits come off the outcome
// map, and nothing simulates.
type Observer struct {
	Point func(k int, t Tally)
	Shot  func(k int, s Shot)
}

// RunPoints is the one execution entry over caller-owned replicas
// (internal/service pools them across jobs): it runs `shots` repetitions
// of every point, point k's shot stream seeded from
// machine.DeriveSeed(base, k), and returns each point's Tally in point
// order; it keeps no shots. A nil point runs art as it stands — a plain run
// is the one-point list {nil}; any other point loads art patched with its
// binding. One point fans its shots out across all the replicas, several
// fan out one point per replica. Either way each replica folds the shots
// it ran into a Tally of its own, merged once the point is done, so
// neither the tallies nor the error (the lowest failing index's) depend on
// the replica count or completion order.
func RunPoints(machines []*machine.Machine, art *compiler.Compiled, base int64, points []map[string]float64, shots int, obs Observer) ([]Tally, error) {
	if len(machines) == 0 || art == nil || shots < 0 {
		return nil, fmt.Errorf("runner: RunPoints with no machines, no compiled artifact or %d shots", shots)
	}
	out := make([]Tally, len(points))
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
		parts, seed := make([]Tally, len(on)), machine.DeriveSeed(base, k)
		err = fanOut(on, shots, func(r, i int) error {
			shot, err := execShot(on[r], seed, i, obs.Shot == nil)
			if err != nil {
				return err
			}
			parts[r].Add(shot)
			if obs.Shot != nil {
				obs.Shot(k, shot)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, p := range parts[1:] {
			parts[0].Merge(p)
		}
		if out[k] = parts[0]; obs.Point != nil {
			obs.Point(k, out[k])
		}
		return nil
	}
	var err error
	if len(points) == 1 {
		err = runPoint(machines, 0)
	} else {
		err = fanOut(machines, len(points), func(r, k int) error {
			if err := runPoint(machines[r:r+1], k); err != nil {
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
