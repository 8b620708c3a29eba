package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/placement"
	"dhisq/internal/quantum"
	"dhisq/internal/runner"
	"dhisq/internal/stabilizer"
	"dhisq/internal/workloads"
)

// The kernels experiment measures the two rewritten simulation kernels
// against the retained reference implementations (the same oracles the
// property tests compare amplitudes and stabilizer rows against), plus the
// commit tape against full simulation, and emits BENCH_kernels.json. Its
// CI gates are all ratios taken in one process: the statevec gate
// microbench must hold a >= 2x geometric-mean speedup over the reference
// kernels on states whose every qubit is active, the ancilla-reuse loop
// (entangle, measure, reset, reuse) must run >= 2x faster than its
// full-vector replay through the reference kernels, a ghz_n128 shot
// through the runner must cost at most a twentieth of its full simulation
// (the tape with the stabilizer outcome map), the same chain behind a
// reset at most 1/1.3 of it (the tape alone — a reset keeps the map from
// being hoisted, and what is left is the tableau kernel, ~60% of a full
// shot), and feed-forward bv_n400/8 must report static: false.

// kernelGate is one microbench cell: ns/gate for the reference and the
// rewritten kernel on the same gate kind at the same size.
type kernelGate struct {
	Kind         string  `json:"kind"`
	N            int     `json:"n"`
	RefNsPerGate float64 `json:"ref_ns_per_gate"`
	NewNsPerGate float64 `json:"new_ns_per_gate"`
	Speedup      float64 `json:"speedup"`
}

// kernelShot is one end-to-end shot-throughput row: every shot simulated
// in full (a loop over Reset/Run/ReadBits) versus what a job gets
// (runner.RunOn, which tapes a static program), on the same replica in
// the same process — a pooled replica serving repeat jobs, as in the
// daemon. Best of rounds, so the taped column is a warm tape: the
// recording shot and the outcome map are paid in the first round only.
type kernelShot struct {
	Name           string  `json:"name"`
	Backend        string  `json:"backend"`
	Shots          int     `json:"shots"`
	Static         bool    `json:"static"`
	FullMsPerShot  float64 `json:"full_ms_per_shot"`
	TapedMsPerShot float64 `json:"taped_ms_per_shot"`
	Speedup        float64 `json:"speedup"`
}

// kernelAncilla is the measure→reset→reuse microbench: ns per cycle on a
// state of Data active qubits plus Ancillas reused ones, the full-vector
// replay through the Ref kernels against the active-space State.
type kernelAncilla struct {
	Data          int     `json:"data_qubits"`
	Ancillas      int     `json:"ancilla_qubits"`
	RefNsPerCycle float64 `json:"ref_ns_per_cycle"`
	NewNsPerCycle float64 `json:"new_ns_per_cycle"`
	Speedup       float64 `json:"speedup"`
}

type kernelReport struct {
	StatevecGates          []kernelGate  `json:"statevec_gates"`
	StatevecGeomeanSpeedup float64       `json:"statevec_geomean_speedup"`
	AncillaReuse           kernelAncilla `json:"ancilla_reuse"`
	StabilizerGates        []kernelGate  `json:"stabilizer_gates"`
	Shots                  []kernelShot  `json:"shots"`
}

// bestNsPer runs fn(iters) for a few rounds and keeps the cheapest
// per-iteration cost, so a scheduler deschedule in one round cannot flip
// the CI-gating speedup assertions.
func bestNsPer(rounds, iters int, fn func(iters int)) float64 {
	best := math.MaxFloat64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		fn(iters)
		if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); ns < best {
			best = ns
		}
	}
	return best
}

// benchKernelsStatevec times each gate kind on dense states of 2^n
// amplitudes, reference versus rewritten, and returns the rows plus the
// geometric-mean speedup across every (kind, n) cell.
func benchKernelsStatevec() ([]kernelGate, float64) {
	is2 := complex(1/math.Sqrt2, 0)
	tph := cmplx.Exp(1i * math.Pi / 4)
	kinds := []struct {
		name  string
		newFn func(s *quantum.State, a, b int)
		refFn func(s *quantum.State, a, b int)
	}{
		{"h",
			func(s *quantum.State, a, _ int) { s.H(a) },
			func(s *quantum.State, a, _ int) { quantum.RefApply1(s, a, is2, is2, is2, -is2) }},
		{"x",
			func(s *quantum.State, a, _ int) { s.X(a) },
			func(s *quantum.State, a, _ int) { quantum.RefApply1(s, a, 0, 1, 1, 0) }},
		{"t",
			func(s *quantum.State, a, _ int) { s.T(a) },
			func(s *quantum.State, a, _ int) { quantum.RefApply1(s, a, 1, 0, 0, tph) }},
		{"rz",
			func(s *quantum.State, a, _ int) { s.RZ(a, 0.3) },
			func(s *quantum.State, a, _ int) {
				quantum.RefApply1(s, a, cmplx.Exp(-0.15i), 0, 0, cmplx.Exp(0.15i))
			}},
		{"cnot",
			func(s *quantum.State, a, b int) { s.CNOT(a, b) },
			func(s *quantum.State, a, b int) { quantum.RefCNOT(s, a, b) }},
		{"cz",
			func(s *quantum.State, a, b int) { s.CZ(a, b) },
			func(s *quantum.State, a, b int) { quantum.RefCZ(s, a, b) }},
		{"cphase",
			func(s *quantum.State, a, b int) { s.CPhase(a, b, 0.3) },
			func(s *quantum.State, a, b int) { quantum.RefCPhase(s, a, b, 0.3) }},
		{"swap",
			func(s *quantum.State, a, b int) { s.SWAP(a, b) },
			func(s *quantum.State, a, b int) { quantum.RefSWAP(s, a, b) }},
	}
	const rounds = 3
	var rows []kernelGate
	logSum, cells := 0.0, 0
	for _, n := range []int{12, 16, 20} {
		s := quantum.NewState(n)
		for q := 0; q < n; q++ {
			s.H(q) // dense state: every amplitude nonzero
		}
		iters := 1 << uint(26-n) // ~2^26 amplitude-pairs per round
		for _, k := range kinds {
			loop := func(fn func(s *quantum.State, a, b int)) float64 {
				return bestNsPer(rounds, iters, func(it int) {
					for i := 0; i < it; i++ {
						a := i % n
						fn(s, a, (a+1)%n)
					}
				})
			}
			refNs := loop(k.refFn)
			newNs := loop(k.newFn)
			sp := refNs / newNs
			rows = append(rows, kernelGate{Kind: k.name, N: n, RefNsPerGate: refNs, NewNsPerGate: newNs, Speedup: sp})
			logSum += math.Log(sp)
			cells++
		}
	}
	return rows, math.Exp(logSum / float64(cells))
}

// benchAncillaReuse times the cycle a communication qubit lives through
// between EPR windows — CNOT from a data qubit onto the ancilla, measure
// it, X it back to |0> if it read 1, move to the next ancilla — on 12
// entangled data qubits and 2 ancillas, the shape of a 2-chip dvqe_n12
// shot. The Ref side replays the same cycles on all 2^14 amplitudes with a
// twinned RNG; the two must read the same outcomes.
func benchAncillaReuse() (kernelAncilla, error) {
	const data, ancillas, rounds, iters = 12, 2, 3, 256
	prepare := func() *quantum.State {
		s := quantum.NewState(data + ancillas)
		for q := 0; q < data; q++ {
			s.RY(q, 0.3+0.1*float64(q))
		}
		for q := 0; q+1 < data; q++ {
			s.CNOT(q, q+1)
		}
		return s
	}
	var newOnes, refOnes int
	ns, ref := prepare(), prepare()
	nsRng, refRng := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	newNs := bestNsPer(rounds, iters, func(it int) {
		for i := 0; i < it; i++ {
			a := data + i%ancillas
			ns.CNOT(i%data, a)
			if ns.Measure(a, nsRng) == 1 {
				ns.X(a)
				newOnes++
			}
		}
	})
	refNs := bestNsPer(rounds, iters, func(it int) {
		for i := 0; i < it; i++ {
			a := data + i%ancillas
			quantum.RefCNOT(ref, i%data, a)
			if quantum.RefMeasure(ref, a, refRng) == 1 {
				quantum.RefApply1(ref, a, 0, 1, 1, 0)
				refOnes++
			}
		}
	})
	if newOnes != refOnes {
		return kernelAncilla{}, fmt.Errorf("ancilla reuse: %d one-outcomes, full-vector replay read %d", newOnes, refOnes)
	}
	return kernelAncilla{
		Data: data, Ancillas: ancillas,
		RefNsPerCycle: refNs, NewNsPerCycle: newNs, Speedup: refNs / newNs,
	}, nil
}

// dvqeBenchmark is the benchmark's sweep_stream job as one bound circuit:
// workloads.DistributedVQE(12, 2) at point 0 over 2 chips, interaction
// placement, dense backend (14 qubits with the two communication qubits).
func dvqeBenchmark() (runner.Spec, error) {
	const qubits, layers = 12, 2
	c, err := workloads.DistributedVQE(qubits, layers).Bind(workloads.DistributedVQEPoint(qubits, layers, 0))
	if err != nil {
		return runner.Spec{}, err
	}
	cfg := machine.DefaultConfig(qubits)
	cfg.Chips = 2
	cfg.Placement = "interaction"
	cfg.Backend = machine.BackendStateVec
	w, h := placement.AutoMesh(cfg.TotalQubits(qubits))
	return runner.Spec{Circuit: c, MeshW: w, MeshH: h, Cfg: cfg}, nil
}

// benchKernelsStabilizer times the column-major tableau against the
// retained row-major reference at adder-scale qubit counts. Informational:
// the word-parallel rewrite's wins here are large and layout-dependent, so
// no CI gate — the statevec geomean is the gated number.
func benchKernelsStabilizer() []kernelGate {
	kinds := []struct {
		name  string
		newFn func(t *stabilizer.Tableau, a, b int)
		refFn func(t *stabilizer.RefTableau, a, b int)
	}{
		{"h",
			func(t *stabilizer.Tableau, a, _ int) { t.H(a) },
			func(t *stabilizer.RefTableau, a, _ int) { t.H(a) }},
		{"s",
			func(t *stabilizer.Tableau, a, _ int) { t.S(a) },
			func(t *stabilizer.RefTableau, a, _ int) { t.S(a) }},
		{"cnot",
			func(t *stabilizer.Tableau, a, b int) { t.CNOT(a, b) },
			func(t *stabilizer.RefTableau, a, b int) { t.CNOT(a, b) }},
		{"cz",
			func(t *stabilizer.Tableau, a, b int) { t.CZ(a, b) },
			func(t *stabilizer.RefTableau, a, b int) { t.CZ(a, b) }},
		{"swap",
			func(t *stabilizer.Tableau, a, b int) { t.SWAP(a, b) },
			func(t *stabilizer.RefTableau, a, b int) { t.SWAP(a, b) }},
	}
	const rounds = 3
	var rows []kernelGate
	for _, n := range []int{256, 1024} {
		nt := stabilizer.New(n)
		rt := stabilizer.NewRef(n)
		iters := 1 << 13
		for _, k := range kinds {
			refNs := bestNsPer(rounds, iters, func(it int) {
				for i := 0; i < it; i++ {
					a := i % n
					k.refFn(rt, a, (a+1)%n)
				}
			})
			newNs := bestNsPer(rounds, iters, func(it int) {
				for i := 0; i < it; i++ {
					a := i % n
					k.newFn(nt, a, (a+1)%n)
				}
			})
			rows = append(rows, kernelGate{Kind: k.name, N: n, RefNsPerGate: refNs, NewNsPerGate: newNs, Speedup: refNs / newNs})
		}

		// Deterministic measurement on a collapsed GHZ state — the op that
		// dominates stabilizer shots (see the ghz_n577 row). The reference
		// clones the whole tableau per call; the rewrite is read-only.
		mt, mr := stabilizer.New(n), stabilizer.NewRef(n)
		mt.H(0)
		mr.H(0)
		for q := 1; q < n; q++ {
			mt.CNOT(q-1, q)
			mr.CNOT(q-1, q)
		}
		mt.MeasureZ(0, rand.New(rand.NewSource(7)))
		mr.MeasureZ(0, rand.New(rand.NewSource(7)))
		mIters := 1 << 8
		refNs := bestNsPer(rounds, mIters, func(it int) {
			for i := 0; i < it; i++ {
				mr.MeasureDeterministic(i % n)
			}
		})
		newNs := bestNsPer(rounds, mIters, func(it int) {
			for i := 0; i < it; i++ {
				mt.MeasureDeterministic(i % n)
			}
		})
		rows = append(rows, kernelGate{Kind: "measure_det", N: n, RefNsPerGate: refNs, NewNsPerGate: newNs, Speedup: refNs / newNs})
	}
	return rows
}

// ghzBenchmark builds a pure-Clifford workload for the stabilizer shot
// rows: a GHZ chain with full readout, at the benchmark's shots_heavy size
// or at adder scale. (The paper's adder itself lowers T gates, which the
// tableau cannot hold.) resetFirst opens with a reset of qubit 0 — a no-op
// on |0>, but enough to keep a tape's outcome map from being hoisted.
func ghzBenchmark(n int, resetFirst bool) runner.Spec {
	c := circuit.New(n)
	if resetFirst {
		c.ResetGate(0)
	}
	c.H(0)
	for q := 1; q < n; q++ {
		c.CNOT(q-1, q)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	w, h := placement.AutoMesh(n)
	cfg := machine.DefaultConfig(n)
	cfg.Backend = machine.BackendStabilizer
	return runner.Spec{Circuit: c, MeshW: w, MeshH: h, Cfg: cfg}
}

// benchShotRow times full simulation against the runner on one spec,
// best-of-rounds, and requires identical histograms. Static is what the
// compiler said of the lowered program; the row also checks the machine
// agreed — a static program's shots after the first came off the tape, a
// feed-forward program's never did.
func benchShotRow(name, backend string, spec runner.Spec, shots int) (kernelShot, error) {
	const rounds = 3
	machines, art, err := runner.Replicas(spec, false, nil, nil, 1)
	if err != nil {
		return kernelShot{}, err
	}
	m := machines[0]
	full := &runner.ShotSet{Shots: make([]runner.Shot, shots), NumBits: spec.Circuit.NumBits}
	fullMs := math.MaxFloat64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for k := range full.Shots {
			seed := machine.DeriveSeed(spec.Cfg.Seed, k)
			m.Reset(seed)
			res, err := m.Run()
			if err != nil {
				return kernelShot{}, err
			}
			bits, err := m.ReadBits()
			if err != nil {
				return kernelShot{}, err
			}
			full.Shots[k] = runner.Shot{Index: k, Seed: seed, Result: res, Bits: bits}
		}
		if ms := float64(time.Since(start).Microseconds()) / 1000 / float64(shots); ms < fullMs {
			fullMs = ms
		}
	}
	var taped *runner.ShotSet
	tapedMs := math.MaxFloat64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if taped, err = runner.RunOn(machines, spec.Cfg.Seed, shots, spec.Circuit.NumBits); err != nil {
			return kernelShot{}, err
		}
		if ms := float64(time.Since(start).Microseconds()) / 1000 / float64(shots); ms < tapedMs {
			tapedMs = ms
		}
	}
	if full.Histogram().String() != taped.Histogram().String() {
		return kernelShot{}, fmt.Errorf("%s: runner histogram diverged from full simulation — determinism invariant broken", name)
	}
	want := uint64(0)
	if art.Static() {
		want = uint64(rounds*shots - 1)
	}
	if st := m.TapeStats(); st.Replayed != want || st.Fallbacks != 0 {
		return kernelShot{}, fmt.Errorf("%s: static %v, yet %d of %d shots replayed and %d recordings fell back",
			name, art.Static(), st.Replayed, rounds*shots, st.Fallbacks)
	}
	return kernelShot{
		Name: name, Backend: backend, Shots: shots, Static: art.Static(),
		FullMsPerShot: fullMs, TapedMsPerShot: tapedMs, Speedup: fullMs / tapedMs,
	}, nil
}

// benchKernels runs the full kernels experiment and enforces its CI gates:
// statevec geomean >= 2x, ancilla reuse >= 2x, ghz_n128 taped >= 20x full
// with the outcome map and >= 1.3x without, bv_n400/8 not static.
func benchKernels(outDir string, seed int64) error {
	svRows, geomean := benchKernelsStatevec()
	for _, r := range svRows {
		fmt.Printf("statevec   %-8s n=%-3d ref %9.1f ns/gate  new %9.1f ns/gate  %6.2fx\n",
			r.Kind, r.N, r.RefNsPerGate, r.NewNsPerGate, r.Speedup)
	}
	fmt.Printf("statevec geomean speedup: %.2fx\n", geomean)

	anc, err := benchAncillaReuse()
	if err != nil {
		return err
	}
	fmt.Printf("statevec   ancilla reuse (%d+%d qubits) ref %9.1f ns/cycle  new %9.1f ns/cycle  %6.2fx\n",
		anc.Data, anc.Ancillas, anc.RefNsPerCycle, anc.NewNsPerCycle, anc.Speedup)

	stRows := benchKernelsStabilizer()
	for _, r := range stRows {
		fmt.Printf("stabilizer %-8s n=%-3d ref %9.1f ns/gate  new %9.1f ns/gate  %6.2fx\n",
			r.Kind, r.N, r.RefNsPerGate, r.NewNsPerGate, r.Speedup)
	}

	var shotRows []kernelShot
	addRow := func(name, backend string, spec runner.Spec, shots int) error {
		spec.Cfg.Seed = seed
		row, err := benchShotRow(name, backend, spec, shots)
		shotRows = append(shotRows, row)
		return err
	}
	bv, err := workloads.BuildScaled("bv_n400", 8)
	if err != nil {
		return err
	}
	bvCfg := machine.DefaultConfig(bv.Qubits)
	bvCfg.Backend = machine.BackendSeeded
	if err := addRow("bv_n400/8", "seeded", runner.Spec{Circuit: bv.Circuit, MeshW: bv.MeshW, MeshH: bv.MeshH, Mapping: bv.Mapping, Cfg: bvCfg}, 64); err != nil {
		return err
	}

	qft, err := workloads.BuildScaled("qft_n30", 1)
	if err != nil {
		return err
	}
	qftCfg := machine.DefaultConfig(qft.Qubits)
	qftCfg.Backend = machine.BackendSeeded
	if err := addRow("qft_n30", "seeded", runner.Spec{Circuit: qft.Circuit, MeshW: qft.MeshW, MeshH: qft.MeshH, Mapping: qft.Mapping, Cfg: qftCfg}, 64); err != nil {
		return err
	}

	// The benchmark's shots_heavy GHZ job: static and Clifford, so after
	// the recording shot a shot is a reseed, one draw and 128 parities.
	if err := addRow("ghz_n128", "stabilizer", ghzBenchmark(128, false), 250); err != nil {
		return err
	}
	// The same chain behind a reset: a reset's correction is conditioned
	// on a draw, so the outcome map is not hoisted and every shot replays
	// the tape onto the tableau — what deleting the control stack buys
	// without the map's help.
	if err := addRow("ghz_n128_reset", "stabilizer", ghzBenchmark(128, true), 250); err != nil {
		return err
	}
	if err := addRow("ghz_n577", "stabilizer", ghzBenchmark(577, false), 64); err != nil {
		return err
	}

	// A remote-gate shot through machine.Run on the dense backend: the cost
	// per shot of communication qubits that sit in |0> between EPR windows.
	// Teleport feed-forward, so never taped.
	dvqeSpec, err := dvqeBenchmark()
	if err != nil {
		return err
	}
	if err := addRow("dvqe_n12_c2", "statevec", dvqeSpec, 64); err != nil {
		return err
	}

	byName := map[string]kernelShot{}
	for _, r := range shotRows {
		byName[r.Name] = r
		fmt.Printf("shots %-14s %-10s static %-5v %6.3f ms/shot full  %6.3f ms/shot taped  %6.2fx\n",
			r.Name, r.Backend, r.Static, r.FullMsPerShot, r.TapedMsPerShot, r.Speedup)
	}

	if geomean < 2.0 {
		return fmt.Errorf("statevec kernel geomean speedup %.2fx, CI gate requires >= 2.0x", geomean)
	}
	if anc.Speedup < 2.0 {
		return fmt.Errorf("ancilla-reuse speedup %.2fx over the full-vector replay, CI gate requires >= 2.0x", anc.Speedup)
	}
	ghz, plain, ff := byName["ghz_n128"], byName["ghz_n128_reset"], byName["bv_n400/8"]
	if !ghz.Static || ghz.Speedup < 20 {
		return fmt.Errorf("ghz_n128 (static %v) taped %.2fx full simulation, CI gate requires static and >= 20x", ghz.Static, ghz.Speedup)
	}
	if !plain.Static || plain.Speedup < 1.3 {
		return fmt.Errorf("ghz_n128_reset (static %v) taped %.2fx full simulation, CI gate requires static and >= 1.3x", plain.Static, plain.Speedup)
	}
	if ff.Static {
		return fmt.Errorf("bv_n400/8 is feed-forward, yet its lowered program reads as static")
	}
	fmt.Printf("gates hold: statevec geomean %.2fx >= 2.0x; ancilla reuse %.2fx >= 2.0x; ghz_n128 taped %.1fx >= 20x, tape alone %.2fx >= 1.3x; bv_n400/8 not static (%.2fx)\n",
		geomean, anc.Speedup, ghz.Speedup, plain.Speedup, ff.Speedup)

	return writeBenchJSON(outDir, "kernels", kernelReport{
		StatevecGates:          svRows,
		StatevecGeomeanSpeedup: geomean,
		AncillaReuse:           anc,
		StabilizerGates:        stRows,
		Shots:                  shotRows,
	})
}
