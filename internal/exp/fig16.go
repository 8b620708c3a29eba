package exp

import (
	"fmt"
	"math"

	"dhisq/internal/baseline"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/fidelity"
	"dhisq/internal/machine"
	"dhisq/internal/runner"
	"dhisq/internal/sim"
)

// Fig16Point is one T1 setting of Figure 16.
type Fig16Point struct {
	T1us          float64
	BISPInfid     float64
	LockstepInfid float64
	Ratio         float64 // lockstep / BISP infidelity (paper: ~5x)
}

// Fig16Result is the sweep plus the underlying makespans.
type Fig16Result struct {
	BISPMakespan     sim.Time
	LockstepMakespan sim.Time
	Qubits           int
	Points           []Fig16Point
}

// Fig16Fidelity reproduces Figure 16: the long-range CNOT circuit of
// Fig. 14 executed under BISP and lock-step, with infidelity from the
// coherence model swept over T1 = 30..300 µs. BISP's win comes from
// concurrent feedback: the ancilla measurement results of simultaneous
// long-range CNOTs flow point-to-point in parallel, while the shared-flow
// baseline serializes every result through the central controller.
// Infidelity is accounted over the protocol's data qubits (the ancillas are
// measured out and reset). With four lanes at distance 10, run twice, BISP
// reads 1.04e-2 at 300 µs to 9.9e-2 at 30 µs, above the paper's 1e-3..1e-2
// band, and the reduction 2.93–3.25× against the paper's ~5×; ROADMAP.md
// item 1(c) asks why.
func Fig16Fidelity(seed int64) (Fig16Result, error) {
	// Independent simultaneous long-range CNOT lanes (Fig. 14 plus the
	// simultaneous-feedback opportunity of §2.1.2), repeated. The lock-step
	// baseline must serialize every lane's ancilla results through its
	// central controller; BISP runs them concurrently.
	const lanes, distance, repetitions = 4, 10, 2
	logical := circuit.New(lanes * distance)
	for rep := 0; rep < repetitions; rep++ {
		for k := 0; k < lanes; k++ {
			logical.H(k * distance)
		}
		for k := 0; k < lanes; k++ {
			logical.CNOT(k*distance, (k+1)*distance-1)
		}
	}
	for k := 0; k < lanes; k++ {
		logical.MeasureInto((k+1)*distance-1, k)
	}
	phys, err := circuit.DualRailEmbedding{}.Embed(logical)
	if err != nil {
		return Fig16Result{}, err
	}

	cfg := machine.DefaultConfig(phys.NumQubits)
	cfg.Backend = machine.BackendSeeded
	cfg.Seed = seed
	w := (phys.NumQubits + 1) / 2
	// Shot 0 through the runner runs with the base seed, keeping the
	// lock-step replay below on identical branches.
	set, err := runner.Run(runner.Spec{Circuit: phys, MeshW: w, MeshH: 2, Cfg: cfg}, 1, 1)
	if err != nil {
		return Fig16Result{}, err
	}
	res := set.Shots[0].Result
	bres, err := baseline.Run(phys, baseline.Hub, chip.NewSeeded(seed))
	if err != nil {
		return Fig16Result{}, err
	}

	// Infidelity is quoted per data qubit (the figure's y-axis normalization;
	// ancillas are measured out and reset). The whole makespan is charged to
	// that one qubit, which puts BISP at 1.04e-2..9.9e-2, not in the paper's
	// 1e-3..1e-2 decade (ROADMAP.md item 1(c)).
	dataQubits := 1
	out := Fig16Result{
		BISPMakespan:     res.Makespan,
		LockstepMakespan: bres.Makespan,
		Qubits:           phys.NumQubits,
	}
	for t1 := 30.0; t1 <= 300; t1 += 30 {
		c := fidelity.Microseconds(t1)
		bi := fidelity.ProgramInfidelity(res.Makespan, dataQubits, c)
		li := fidelity.ProgramInfidelity(bres.Makespan, dataQubits, c)
		out.Points = append(out.Points, Fig16Point{
			T1us:          t1,
			BISPInfid:     bi,
			LockstepInfid: li,
			Ratio:         fidelity.ReductionRatio(bi, li),
		})
	}
	return out, nil
}

var fig16Cols = []column[Fig16Point]{
	{"T1(us)", func(p Fig16Point) string { return fmt.Sprintf("%.0f", p.T1us) }},
	{"bisp infid", func(p Fig16Point) string { return fmt.Sprintf("%.3e", p.BISPInfid) }},
	{"lockstep infid", func(p Fig16Point) string { return fmt.Sprintf("%.3e", p.LockstepInfid) }},
	{"reduction", func(p Fig16Point) string { return fmt.Sprintf("%.2f", p.Ratio) }},
}

// fig16Gates holds Figure 16's claim (§6.4): BISP's concurrent feedback
// cuts program infidelity by a roughly constant factor across the T1
// sweep (the paper: ~5×; this model reads 2.93–3.25×, and ROADMAP item
// 1(c) asks why).
//
//   - bisp_makespan: BISP finishes the all-feedback circuit before
//     lock-step does (the value is BISP's makespan, the bound lock-step's).
//   - reduction_at_least_2: every T1 point cuts infidelity at least 2×.
//   - reduction_flat: every point's reduction is within 30 % of the first
//     point's.
func fig16Gates(r Fig16Result) []Gate {
	low, drift := 0, 0
	for _, p := range r.Points {
		if p.Ratio < 2 {
			low++
		}
		if first := r.Points[0].Ratio; math.Abs(p.Ratio-first) > 0.3*first {
			drift++
		}
	}
	return []Gate{
		NewGate("bisp_makespan", float64(r.BISPMakespan), "<", float64(r.LockstepMakespan)),
		NewGate("reduction_at_least_2", float64(low), "==", 0),
		NewGate("reduction_flat", float64(drift), "==", 0),
	}
}
