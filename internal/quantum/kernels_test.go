package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// BenchmarkKernels times each rewritten kernel against its reference, one
// ref/new pair per gate kind and size, gates round-robin over neighbouring
// qubits of a dense state: every qubit active, the case the active-space
// layout must not slow. ancilla_reuse is the cycle a communication qubit
// lives through between EPR windows — CNOT from a data qubit onto it,
// measure it, X it back to |0> if it read 1, move to the next ancilla — on
// 12 entangled data qubits and 2 ancillas, the shape of a 2-chip dvqe_n12
// shot; the reference replays it on all 2^14 amplitudes, the active-space
// State on the data qubits alone (TestActiveSpaceOracle holds the two to
// the same amplitudes). EXPERIMENTS.md records a run.
func BenchmarkKernels(b *testing.B) {
	is2 := complex(1/math.Sqrt2, 0)
	tph := cmplx.Exp(1i * math.Pi / 4)
	type kernel func(s *State, a, b int)
	gates := []struct {
		name     string
		ref, new kernel
	}{
		{"h",
			func(s *State, a, _ int) { RefApply1(s, a, is2, is2, is2, -is2) },
			func(s *State, a, _ int) { s.H(a) }},
		{"x",
			func(s *State, a, _ int) { RefApply1(s, a, 0, 1, 1, 0) },
			func(s *State, a, _ int) { s.X(a) }},
		{"t",
			func(s *State, a, _ int) { RefApply1(s, a, 1, 0, 0, tph) },
			func(s *State, a, _ int) { s.T(a) }},
		{"rz",
			func(s *State, a, _ int) { RefApply1(s, a, cmplx.Exp(-0.15i), 0, 0, cmplx.Exp(0.15i)) },
			func(s *State, a, _ int) { s.RZ(a, 0.3) }},
		{"cnot", RefCNOT, (*State).CNOT},
		{"cz", RefCZ, (*State).CZ},
		{"cphase",
			func(s *State, a, b int) { RefCPhase(s, a, b, 0.3) },
			func(s *State, a, b int) { s.CPhase(a, b, 0.3) }},
		{"swap", RefSWAP, (*State).SWAP},
	}
	for _, n := range []int{12, 16, 20} {
		for _, g := range gates {
			for _, side := range []struct {
				name string
				fn   kernel
			}{{"ref", g.ref}, {"new", g.new}} {
				b.Run(fmt.Sprintf("%s/n%d/%s", g.name, n, side.name), func(b *testing.B) {
					s := NewState(n)
					for q := 0; q < n; q++ {
						s.H(q)
					}
					for i := 0; b.Loop(); i++ {
						a := i % n
						side.fn(s, a, (a+1)%n)
					}
				})
			}
		}
	}
	for _, ref := range []bool{true, false} {
		side := "new"
		if ref {
			side = "ref"
		}
		b.Run("ancilla_reuse/"+side, func(b *testing.B) {
			const data, ancillas = 12, 2
			s := NewState(data + ancillas)
			for q := 0; q < data; q++ {
				s.RY(q, 0.3+0.1*float64(q))
			}
			for q := 0; q+1 < data; q++ {
				s.CNOT(q, q+1)
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; b.Loop(); i++ {
				a := data + i%ancillas
				if ref {
					RefCNOT(s, i%data, a)
					if RefMeasure(s, a, rng) == 1 {
						RefApply1(s, a, 0, 1, 1, 0)
					}
				} else {
					s.CNOT(i%data, a)
					if s.Measure(a, rng) == 1 {
						s.X(a)
					}
				}
			}
		})
	}
}
