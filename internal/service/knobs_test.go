package service

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/baseline"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/sim"
	"dhisq/internal/store"
)

// The knob generator: one seeded feed-forward circuit per seed, run under
// every knob cell Resolve builds, with four exact clauses per cell.
//
//  1. Sequential oracle. BackendSeeded's outcomes depend on no order, so
//     shot k's bits equal baseline.Run's lock-step bits at DeriveSeed(seed,
//     k). On one chip the machine also applies exactly the gates the
//     sequential run applies: a branch taken the wrong way shows here even
//     though no outcome reads it.
//  2. Execution identity. runner.Run and RunSweep at 1 and 3 workers, a
//     run with the commit tape bypassed (LogEvents), and service jobs —
//     plain, Params and Sweep, at ShotWorkers 1 and 3 on one worker and at
//     ShotWorkers 1 on two (a lone job there runs on replicas lent by the
//     idle worker), cold then warm, and the plain job once more on the
//     seeded backend (its shots past the first off the outcome map) — all
//     equal rebuilt, the uncached machine-per-shot oracle; sweep point k is
//     rebuilt at DeriveSeed(seed, k).
//  3. Timing. With contention off no shot breaks an invariant of the
//     paper (violations, misalignments, overlaps, inversions), and no
//     makespan is below the dependency depth of the unconditioned ops.
//  4. Identity. A cell whose fingerprint an earlier cell had compiles,
//     uncached, to a byte-identical program (what every cache hit relies
//     on), and a job hits the artifact cache exactly when an earlier job
//     had its fingerprint.
//
// Not asserted, because it does not hold: per-shot bits under a timing
// knob on a quantum backend (the order of the draws follows the timing),
// and zero misalignments under contention (DESIGN.md "Where congestion
// lands").

const (
	knobShots = 3 // shots per run, per point
	// knobServiceEvery rotates the service jobs: a case submits jobs for
	// every knobServiceEvery-th cell, starting at an offset its seed picks.
	knobServiceEvery = 11
)

// knobCase is one generated circuit and what its cells share.
type knobCase struct {
	n       int
	seed    int64                // the runs' base seed, never 0
	skel    *circuit.Circuit     // symbolic RY angles unless Clifford
	points  []map[string]float64 // three sweep points; nil when Clifford
	bound   []*circuit.Circuit   // skel bound at each point; {skel} when Clifford
	backend machine.BackendKind
}

// genKnobCase draws seed's circuit: 2–6 qubits of H/X/S/Z and CNOT/CZ in
// rounds, each closed by a mid-circuit measurement, a gate conditioned on
// the parity of one or two measured bits, and a partial or full barrier.
// Odd seeds add a symbolic RY per round and run on the dense backend (auto
// or statevec); even seeds stay Clifford on the stabilizer tableau. Every
// third seed drops the conditioned gates: its program reads no outcome, so
// its shots come off the commit tape.
func genKnobCase(seed int64) knobCase {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(5)
	kc := knobCase{n: n, seed: rng.Int63() | 1, backend: machine.BackendStabilizer}
	clifford := seed&1 == 0
	if !clifford {
		kc.backend = []machine.BackendKind{machine.BackendAuto, machine.BackendStateVec}[seed>>1&1]
	}
	pair := func() (int, int) {
		a, b := rng.Intn(n), rng.Intn(n-1)
		if b >= a {
			b++
		}
		return a, b
	}
	c := circuit.New(n)
	var meas []int
	var syms []string
	for rounds := 2 + rng.Intn(2); rounds > 0; rounds-- {
		for i := 0; i < n; i++ {
			switch a, b := pair(); rng.Intn(3) {
			case 0:
				c.Gate([]circuit.Kind{circuit.H, circuit.X, circuit.S, circuit.Z}[rng.Intn(4)], a)
			case 1:
				c.CNOT(a, b)
			default:
				c.CZ(a, b)
			}
		}
		if !clifford {
			syms = append(syms, fmt.Sprintf("t%d", len(syms)))
			c.RYSym(rng.Intn(n), syms[len(syms)-1])
		}
		meas = append(meas, c.MeasureNew(rng.Intn(n)))
		cond := circuit.Condition{Bits: []int{meas[len(meas)-1]}, Parity: rng.Intn(2)}
		if len(meas) > 1 && rng.Intn(2) == 0 {
			cond.Bits = append(cond.Bits, meas[rng.Intn(len(meas)-1)])
		}
		if seed%3 != 0 {
			c.CondGate([]circuit.Kind{circuit.X, circuit.Z, circuit.H}[rng.Intn(3)], cond, rng.Intn(n))
		}
		if a, b := pair(); rng.Intn(2) == 0 {
			c.Gate(circuit.Barrier, a, b)
		} else {
			c.BarrierAll()
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureNew(q)
	}
	kc.skel, kc.bound = c, []*circuit.Circuit{c}
	if clifford {
		return kc
	}
	kc.points, kc.bound = make([]map[string]float64, 3), make([]*circuit.Circuit, 3)
	for k := range kc.points {
		kc.points[k] = map[string]float64{}
		for _, s := range syms {
			kc.points[k][s] = 2 * math.Pi * rng.Float64()
		}
		b, err := c.Bind(kc.points[k])
		if err != nil {
			panic(err)
		}
		kc.bound[k] = b
	}
	return kc
}

// knobCell is one knob setting: the request's option fields, and the
// machine config's padded schedule, EPR latency and fabric neighbour
// latency (0 keeps the default).
type knobCell struct {
	req      Request
	padded   bool
	epr, lat sim.Time
}

func (c knobCell) String() string {
	return fmt.Sprintf("topo=%q link_bw=%d placement=%q padded=%v chips=%d epr_latency=%d latency=%d",
		c.req.Topo, c.req.LinkBW, c.req.Placement, c.padded, c.req.Chips, c.epr, c.lat)
}

// knobCells moves one knob at a time away from the default (mesh) machine.
func knobCells() []knobCell {
	var cells []knobCell
	for _, topo := range []string{"mesh", "torus", "tree"} {
		cells = append(cells, knobCell{req: Request{Topo: topo}})
	}
	cells = append(cells, knobCell{req: Request{LinkBW: 4}}, knobCell{req: Request{Topo: "tree", LinkBW: 4}})
	for _, p := range placement.Names() {
		cells = append(cells, knobCell{req: Request{Placement: p}})
	}
	for _, padded := range []bool{false, true} {
		cells = append(cells, knobCell{padded: padded})
	}
	for _, chips := range []int{2, 3} {
		cells = append(cells, knobCell{req: Request{Chips: chips}, epr: 40})
	}
	for _, lat := range []sim.Time{1, 2, 5, 9} {
		cells = append(cells, knobCell{lat: lat})
	}
	return cells
}

// request is cell's request for c on backend at seed, and the machine
// config it resolves on: the backend and the cell's knobs that no request
// spells.
func (kc knobCase) request(cell knobCell, c *circuit.Circuit, backend machine.BackendKind, seed int64) (Request, machine.Config) {
	cfg := machine.DefaultConfig(kc.n)
	cfg.Backend = backend
	cfg.Padded, cfg.EPRLatency = cell.padded, cell.epr
	if cell.lat != 0 {
		cfg.Net.NeighborLatency = cell.lat
	}
	req := cell.req
	req.Circuit, req.Shots, req.Seed = c, knobShots, seed
	return req, cfg
}

// countingBackend counts the gates a run applies to the backend it wraps.
type countingBackend struct {
	chip.Backend
	gates uint64
}

func (b *countingBackend) Apply(k circuit.Kind, p float64, x, y int) int {
	if k != circuit.Measure {
		b.gates++
	}
	return b.Backend.Apply(k, p, x, y)
}

// checkTiming is clause 3 over one run's shots. Its floor is the depth of
// c's unconditioned ops, which every shot runs. c.Depth is no floor: it
// charges every conditioned op, and a shot skips the ones whose branch is
// not taken.
func checkTiming(t *testing.T, where string, set *runner.ShotSet, c *circuit.Circuit, cfg machine.Config) {
	t.Helper()
	always := &circuit.Circuit{NumQubits: c.NumQubits, NumBits: c.NumBits}
	for _, op := range c.Ops {
		if op.Cond == nil {
			always.Ops = append(always.Ops, op)
		}
	}
	floor := always.Depth(circuit.PaperDurations())
	for _, s := range set.Shots {
		r := s.Result
		if cfg.Net.LinkSerialization == 0 && r.Violations+uint64(r.Misalignments+r.Overlaps+r.Inversions) != 0 {
			t.Errorf("%s shot %d: violations %d, misalignments %d, overlaps %d, inversions %d without contention",
				where, s.Index, r.Violations, r.Misalignments, r.Overlaps, r.Inversions)
		}
		if int64(r.Makespan) < floor {
			t.Errorf("%s shot %d: makespan %d below the unconditioned depth %d", where, s.Index, r.Makespan, floor)
		}
	}
}

// encodeUncached is the store encoding of spec's program compiled with
// nothing cached.
func encodeUncached(t *testing.T, spec runner.Spec) []byte {
	t.Helper()
	cfg, err := machine.Normalize(spec.Circuit, spec.MeshW, spec.MeshH, spec.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := machine.CompileUncached(spec.Circuit, spec.Mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return store.Encode(cp)
}

// checkKnobInvariants generates seed's circuit and holds every cell of it
// to the four clauses.
func checkKnobInvariants(t *testing.T, seed int64) {
	kc := genKnobCase(seed)
	cache := artifact.New(64)
	var svcs [3]*Service
	var seen [3]map[string]bool
	for i, cfg := range []Config{{Workers: 1, ShotWorkers: 1}, {Workers: 1, ShotWorkers: 3}, {Workers: 2, ShotWorkers: 1}} {
		cfg.Artifacts = artifact.New(64)
		svcs[i] = New(cfg)
		defer svcs[i].Close()
		seen[i] = map[string]bool{}
	}
	programs := map[artifact.Fingerprint][]byte{} // each fingerprint's first cell, encoded
	run := func(where string, spec runner.Spec, workers int) *runner.ShotSet {
		t.Helper()
		spec.Cfg.Artifacts = cache
		set, err := runner.Run(spec, knobShots, workers)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		return set
	}

	for j, cell := range knobCells() {
		where := fmt.Sprintf("seed %d, %d qubits, %v", seed, kc.n, cell)

		// Clause 1: the sequential oracle, under order-free outcomes.
		seededAdm, err := resolve(kc.request(cell, kc.bound[0], machine.BackendSeeded, kc.seed))
		if err != nil {
			if cell.req.Chips > kc.n {
				continue // Resolve's own rejection: a chip needs a data qubit
			}
			t.Fatalf("%s: %v", where, err)
		}
		seeded := run(where+", seeded", seededAdm.Spec, 1)
		for k, s := range seeded.Shots {
			seq := &countingBackend{Backend: chip.NewSeeded(machine.DeriveSeed(kc.seed, k))}
			want, err := baseline.Run(kc.bound[0], baseline.Hub, seq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s.Bits, want.Bits) {
				t.Errorf("%s shot %d: bits %v, sequential run %v", where, k, s.Bits, want.Bits)
			}
			if seededAdm.Spec.Cfg.Chips <= 1 && s.Result.Gates != seq.gates {
				t.Errorf("%s shot %d: applied %d gates, the sequential run %d", where, k, s.Result.Gates, seq.gates)
			}
		}
		checkTiming(t, where+", seeded", seeded, kc.bound[0], seededAdm.Spec.Cfg)

		// Clause 2: every execution path equals rebuilt, point by point.
		want := make([]*runner.ShotSet, len(kc.bound))
		for k, b := range kc.bound {
			req, cfg := kc.request(cell, b, kc.backend, machine.DeriveSeed(kc.seed, k))
			spec := mustResolve(t, req, cfg).Spec
			want[k] = rebuilt(t, spec, knobShots)
			checkTiming(t, fmt.Sprintf("%s, point %d", where, k), want[k], b, spec.Cfg)
		}
		plain, cfg := kc.request(cell, kc.bound[0], kc.backend, kc.seed)
		adm := mustResolve(t, plain, cfg)
		logged := adm.Spec
		logged.Cfg.LogEvents = true
		for name, got := range map[string]*runner.ShotSet{
			"1 worker":             run(where, adm.Spec, 1),
			"3 workers":            run(where, adm.Spec, 3),
			"LogEvents, 3 workers": run(where, logged, 3),
		} {
			if !reflect.DeepEqual(got, want[0]) {
				t.Errorf("%s: runner.Run at %s diverges from rebuilt", where, name)
			}
		}
		jobs := []Admission{adm}
		if kc.points != nil {
			params, _ := kc.request(cell, kc.skel, kc.backend, kc.seed)
			sweep := params
			params.Params, sweep.Sweep = kc.points[0], kc.points
			swept := mustResolve(t, sweep, cfg)
			jobs = append(jobs, mustResolve(t, params, cfg), swept)
			spec := swept.Spec
			spec.Cfg.Artifacts = cache
			for _, workers := range []int{1, 3} {
				pts, err := runner.RunSweep(spec, kc.points, knobShots, workers)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				for k, pt := range pts {
					if pt.Index != k || !reflect.DeepEqual(pt.Set, want[k]) {
						t.Errorf("%s: RunSweep at %d workers, point %d diverges from rebuilt at DeriveSeed(seed, %d)", where, workers, k, k)
					}
				}
			}
		}

		// Clause 4: one fingerprint, one program.
		tally := want[0].Tally()
		prog := encodeUncached(t, adm.Spec)
		if first, ok := programs[adm.Fingerprint]; !ok {
			programs[adm.Fingerprint] = prog
		} else if !bytes.Equal(prog, first) {
			t.Errorf("%s: same fingerprint as an earlier cell, but a different program", where)
		}

		// Clause 2's service half, and clause 4's cache hits, on a rotating
		// subset of the cells. The seeded plain job's tally is the fold of
		// the seeded cell rebuilt.
		if (j+int(seed%knobServiceEvery))%knobServiceEvery != 0 {
			continue
		}
		seededTally := rebuilt(t, seededAdm.Spec, knobShots).Tally()
		for i, svc := range svcs {
			for _, a := range append(jobs, seededAdm) {
				req, tally := a.Req, tally
				if a.Fingerprint == seededAdm.Fingerprint {
					tally = seededTally
				}
				for _, step := range []string{"cold", "warm"} {
					st := enqueueWait(t, svc, a)
					at := fmt.Sprintf("%s: %s job (params %v, sweep %v) at Workers %d, ShotWorkers %d", where, step, req.Params != nil, req.Sweep != nil, svc.cfg.Workers, svc.cfg.ShotWorkers)
					if st.CacheHit != seen[i][st.Fingerprint] {
						t.Errorf("%s: CacheHit %v, but an earlier job with its fingerprint: %v", at, st.CacheHit, seen[i][st.Fingerprint])
					}
					seen[i][st.Fingerprint] = true
					if st.Seed != kc.seed {
						t.Errorf("%s: seed %d echoed, want %d", at, st.Seed, kc.seed)
					}
					if req.Sweep == nil {
						if !reflect.DeepEqual(st.Tally, &tally) {
							t.Errorf("%s: tally diverges from rebuilt", at)
						}
						continue
					}
					if st.Tally != nil || st.Histogram != nil || len(st.Points) != len(kc.points) || st.Makespan != st.Points[0].Makespan {
						t.Fatalf("%s: a sweep job reports Tally %v, Histogram %v, %d points, makespan %d", at, st.Tally, st.Histogram, len(st.Points), st.Makespan)
					}
					for k, pt := range st.Points {
						if !reflect.DeepEqual(pt, pointStatusOf(k, kc.points[k], want[k].Tally())) {
							t.Errorf("%s: point %d diverges from rebuilt at DeriveSeed(seed, %d)", at, k, k)
						}
					}
				}
			}
		}
	}
}

// TestKnobInvariants holds 24 generated circuits, half Clifford on the
// tableau and half dense with a three-point sweep, to the four clauses
// under every knob cell.
func TestKnobInvariants(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		checkKnobInvariants(t, seed)
	}
}

// FuzzKnobInvariants is TestKnobInvariants over any seed.
func FuzzKnobInvariants(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(2))
	f.Fuzz(checkKnobInvariants)
}
