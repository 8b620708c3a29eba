package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"time"

	"dhisq/internal/circuit"
	"dhisq/internal/exp"
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
// commit tape against full simulation. Every gate (kernelGates) is a ratio
// or a count taken in one process, never a millisecond figure.

// kernelCell is one microbench cell: ns/gate for the reference and the
// rewritten kernel on the same gate kind at the same size.
type kernelCell struct {
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
	// HistogramsIdentical: the two columns merged to the same histogram.
	HistogramsIdentical bool `json:"histograms_identical"`
	// TapeAsCompiled: the machine agreed with Static — a static program's
	// shots after the first all came off the tape with no fallback, a
	// feed-forward program's never did.
	TapeAsCompiled bool `json:"tape_as_compiled"`
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
	// OutcomesMatch: both sides read the same number of one-outcomes.
	OutcomesMatch bool `json:"outcomes_match"`
}

type kernelReport struct {
	StatevecGates          []kernelCell  `json:"statevec_gates"`
	StatevecGeomeanSpeedup float64       `json:"statevec_geomean_speedup"`
	AncillaReuse           kernelAncilla `json:"ancilla_reuse"`
	StabilizerGates        []kernelCell  `json:"stabilizer_gates"`
	Shots                  []kernelShot  `json:"shots"`
}

// bestNsPer runs fn(iters) for a few rounds and keeps the cheapest
// per-iteration cost, so a scheduler deschedule in one round cannot flip a
// speedup gate.
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
func benchKernelsStatevec() ([]kernelCell, float64) {
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
	var rows []kernelCell
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
			rows = append(rows, kernelCell{Kind: k.name, N: n, RefNsPerGate: refNs, NewNsPerGate: newNs, Speedup: sp})
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
func benchAncillaReuse() kernelAncilla {
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
	return kernelAncilla{
		Data: data, Ancillas: ancillas,
		RefNsPerCycle: refNs, NewNsPerCycle: newNs, Speedup: refNs / newNs,
		OutcomesMatch: newOnes == refOnes,
	}
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
	// No mesh: machine.Normalize picks the one that holds all 14 qubits.
	return runner.Spec{Circuit: c, Cfg: cfg}, nil
}

// benchKernelsStabilizer times the column-major tableau against the
// retained row-major reference at adder-scale qubit counts. Informational:
// the word-parallel rewrite's wins here are large and layout-dependent, so
// no gate — the statevec geomean is the gated number.
func benchKernelsStabilizer() []kernelCell {
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
	var rows []kernelCell
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
			rows = append(rows, kernelCell{Kind: k.name, N: n, RefNsPerGate: refNs, NewNsPerGate: newNs, Speedup: refNs / newNs})
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
		rows = append(rows, kernelCell{Kind: "measure_det", N: n, RefNsPerGate: refNs, NewNsPerGate: newNs, Speedup: refNs / newNs})
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
// best-of-rounds. Static is what the compiler said of the lowered program.
func benchShotRow(name, backend string, spec runner.Spec, shots int) (kernelShot, error) {
	const rounds = 3
	m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, spec.Cfg)
	if err != nil {
		return kernelShot{}, err
	}
	art, err := machine.Compile(spec.Circuit, spec.Mapping, m.Cfg, false)
	if err != nil {
		return kernelShot{}, err
	}
	if err := m.Load(art); err != nil {
		return kernelShot{}, err
	}
	machines := []*machine.Machine{m}
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
	replayed := uint64(0)
	if art.Static() {
		replayed = uint64(rounds*shots - 1)
	}
	st := m.TapeStats()
	return kernelShot{
		Name: name, Backend: backend, Shots: shots, Static: art.Static(),
		FullMsPerShot: fullMs, TapedMsPerShot: tapedMs, Speedup: fullMs / tapedMs,
		HistogramsIdentical: full.Histogram().String() == taped.Histogram().String(),
		TapeAsCompiled:      st.Replayed == replayed && st.Fallbacks == 0,
	}, nil
}

// kernelGates holds the kernels report to its bounds:
//
//   - statevec_geomean: the rewritten statevec kernels hold a >= 2x
//     geometric-mean speedup over the reference kernels on all-H states
//     (every qubit active: the case the active-space layout must not slow).
//   - ancilla_reuse, ancilla_outcomes_match: the measure → reset → reuse
//     loop runs >= 2x faster than its full-vector replay through the
//     reference kernels, reading the same outcomes.
//   - ghz_n128.static, ghz_n128.speedup: a ghz_n128 shot off the tape costs
//     at most 1/20 of its full simulation (the tape with the stabilizer
//     outcome map).
//   - ghz_n128_reset.static, ghz_n128_reset.speedup: the same chain behind a
//     reset, at most 1/1.3 (the tape alone — a reset keeps the map from
//     being hoisted, and what is left is the tableau kernel, ~60% of a full
//     shot).
//   - bv_n400/8.static: feed-forward bv_n400/8 does not read as static.
//   - histograms_identical, tape_as_compiled: no shot row's two columns
//     disagreed, and no machine taped other than its program's Static said.
func kernelGates(r kernelReport) []exp.Gate {
	byName := map[string]kernelShot{}
	diverged, mistaped := 0, 0
	for _, row := range r.Shots {
		byName[row.Name] = row
		if !row.HistogramsIdentical {
			diverged++
		}
		if !row.TapeAsCompiled {
			mistaped++
		}
	}
	ghz, plain, ff := byName["ghz_n128"], byName["ghz_n128_reset"], byName["bv_n400/8"]
	return []exp.Gate{
		exp.NewGate("statevec_geomean", r.StatevecGeomeanSpeedup, ">=", 2),
		exp.NewGate("ancilla_reuse", r.AncillaReuse.Speedup, ">=", 2),
		exp.NewGate("ancilla_outcomes_match", exp.Truth(r.AncillaReuse.OutcomesMatch), "==", 1),
		exp.NewGate("ghz_n128.static", exp.Truth(ghz.Static), "==", 1),
		exp.NewGate("ghz_n128.speedup", ghz.Speedup, ">=", 20),
		exp.NewGate("ghz_n128_reset.static", exp.Truth(plain.Static), "==", 1),
		exp.NewGate("ghz_n128_reset.speedup", plain.Speedup, ">=", 1.3),
		exp.NewGate("bv_n400/8.static", exp.Truth(ff.Static), "==", 0),
		exp.NewGate("histograms_identical", float64(diverged), "==", 0),
		exp.NewGate("tape_as_compiled", float64(mistaped), "==", 0),
	}
}

// runKernels runs the full kernels experiment.
func runKernels(a exp.Args) (*exp.Report, error) {
	var rep kernelReport
	var text strings.Builder
	cells := func(kernel string, rows []kernelCell) {
		for _, r := range rows {
			fmt.Fprintf(&text, "%-10s %-8s n=%-3d ref %9.1f ns/gate  new %9.1f ns/gate  %6.2fx\n",
				kernel, r.Kind, r.N, r.RefNsPerGate, r.NewNsPerGate, r.Speedup)
		}
	}
	rep.StatevecGates, rep.StatevecGeomeanSpeedup = benchKernelsStatevec()
	cells("statevec", rep.StatevecGates)
	fmt.Fprintf(&text, "statevec geomean speedup: %.2fx\n", rep.StatevecGeomeanSpeedup)

	rep.AncillaReuse = benchAncillaReuse()
	anc := rep.AncillaReuse
	fmt.Fprintf(&text, "statevec   ancilla reuse (%d+%d qubits) ref %9.1f ns/cycle  new %9.1f ns/cycle  %6.2fx\n",
		anc.Data, anc.Ancillas, anc.RefNsPerCycle, anc.NewNsPerCycle, anc.Speedup)

	rep.StabilizerGates = benchKernelsStabilizer()
	cells("stabilizer", rep.StabilizerGates)

	seeded := func(name string, scale int) (runner.Spec, error) {
		b, err := workloads.BuildScaled(name, scale)
		if err != nil {
			return runner.Spec{}, err
		}
		cfg := machine.DefaultConfig(b.Qubits)
		cfg.Backend = machine.BackendSeeded
		return runner.Spec{Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH, Mapping: b.Mapping, Cfg: cfg}, nil
	}
	bv, err := seeded("bv_n400", 8)
	if err != nil {
		return nil, err
	}
	qft, err := seeded("qft_n30", 1)
	if err != nil {
		return nil, err
	}
	// A remote-gate shot through machine.Run on the dense backend: the cost
	// per shot of communication qubits that sit in |0> between EPR windows.
	// Teleport feed-forward, so never taped.
	dvqe, err := dvqeBenchmark()
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name, backend string
		spec          runner.Spec
		shots         int
	}{
		{"bv_n400/8", "seeded", bv, 64},
		{"qft_n30", "seeded", qft, 64},
		// The benchmark's shots_heavy GHZ job: static and Clifford, so after
		// the recording shot a shot is a reseed, one draw and 128 parities.
		{"ghz_n128", "stabilizer", ghzBenchmark(128, false), 250},
		// The same chain behind a reset: a reset's correction is conditioned
		// on a draw, so the outcome map is not hoisted and every shot replays
		// the tape onto the tableau — what deleting the control stack buys
		// without the map's help.
		{"ghz_n128_reset", "stabilizer", ghzBenchmark(128, true), 250},
		{"ghz_n577", "stabilizer", ghzBenchmark(577, false), 64},
		{"dvqe_n12_c2", "statevec", dvqe, 64},
	} {
		row.spec.Cfg.Seed = a.Seed
		r, err := benchShotRow(row.name, row.backend, row.spec, row.shots)
		if err != nil {
			return nil, err
		}
		rep.Shots = append(rep.Shots, r)
		fmt.Fprintf(&text, "shots %-14s %-10s static %-5v %6.3f ms/shot full  %6.3f ms/shot taped  %6.2fx\n",
			r.Name, r.Backend, r.Static, r.FullMsPerShot, r.TapedMsPerShot, r.Speedup)
	}
	return &exp.Report{Rows: rep, Gates: kernelGates(rep), Text: text.String()}, nil
}
