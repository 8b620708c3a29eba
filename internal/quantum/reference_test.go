package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// This file retains the pre-optimization state-vector kernels verbatim as
// the semantic oracle for the rewritten ones — the compileMonolithic
// pattern: the slow, obviously-correct implementation survives so the
// fast one can be proven against it forever. The property tests
// (property_test.go) drive randomized circuits through both and require
// identical amplitudes; BenchmarkKernels times the two against each
// other.
//
// Every Ref kernel scans the full amplitude array testing the qubit bit
// of each index — the branch-per-index shape the rewrite replaced with
// block iteration — and RefMeasure takes the original three passes
// (probability, zero+norm, scale). "Full" is literal: a Ref kernel first
// expands the state to all 2^n amplitudes, and leaves it that way.

// activateAll makes every qubit active, so that the amplitude array is
// the full-vector layout the Ref kernels index.
func (s *State) activateAll() {
	s.amp, s.normOK = s.dense(), false
	s.active, s.bits = 1<<uint(s.n)-1, 0
}

// RefApply1 applies the 2x2 unitary {{a,b},{c,d}} to qubit q with the
// legacy full-array scan.
func RefApply1(s *State, q int, a, b, c, d complex128) {
	s.check(q)
	s.activateAll()
	bit := 1 << uint(q)
	for i := 0; i < len(s.amp); i++ {
		if i&bit == 0 {
			j := i | bit
			a0, a1 := s.amp[i], s.amp[j]
			s.amp[i] = a*a0 + b*a1
			s.amp[j] = c*a0 + d*a1
		}
	}
}

// RefCNOT applies a controlled-X with the legacy full-array scan.
func RefCNOT(s *State, ctrl, tgt int) {
	s.check(ctrl)
	s.check(tgt)
	if ctrl == tgt {
		panic("quantum: cnot with ctrl == tgt")
	}
	s.activateAll()
	cb, tb := 1<<uint(ctrl), 1<<uint(tgt)
	for i := range s.amp {
		if i&cb != 0 && i&tb == 0 {
			j := i | tb
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

// RefCZ applies a controlled-Z with the legacy full-array scan.
func RefCZ(s *State, a, b int) {
	s.check(a)
	s.check(b)
	if a == b {
		panic("quantum: cz with a == b")
	}
	s.activateAll()
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := range s.amp {
		if i&ab != 0 && i&bb != 0 {
			s.amp[i] = -s.amp[i]
		}
	}
}

// RefCPhase applies a controlled phase rotation with the legacy scan.
func RefCPhase(s *State, a, b int, theta float64) {
	s.check(a)
	s.check(b)
	s.activateAll()
	ph := cmplx.Exp(complex(0, theta))
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := range s.amp {
		if i&ab != 0 && i&bb != 0 {
			s.amp[i] *= ph
		}
	}
}

// RefSWAP exchanges two qubits as three CNOT scans (the legacy
// decomposition the single-pass SWAP replaced).
func RefSWAP(s *State, a, b int) {
	RefCNOT(s, a, b)
	RefCNOT(s, b, a)
	RefCNOT(s, a, b)
}

// RefProb returns the probability of measuring qubit q as 1 with the
// legacy full-array scan.
func RefProb(s *State, q int) float64 {
	s.check(q)
	s.activateAll()
	bit := 1 << uint(q)
	p := 0.0
	for i, a := range s.amp {
		if i&bit != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// RefMeasure performs the legacy three-pass projective measurement:
// probability scan, zero+norm scan, renormalization scan.
func RefMeasure(s *State, q int, rng *rand.Rand) int {
	p1 := RefProb(s, q)
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	RefProject(s, q, outcome)
	return outcome
}

// RefProject collapses qubit q with the legacy two-pass zero+norm then
// scale sequence.
func RefProject(s *State, q int, outcome int) {
	s.check(q)
	s.activateAll()
	bit := 1 << uint(q)
	norm := 0.0
	for i, a := range s.amp {
		keep := (i&bit != 0) == (outcome == 1)
		if keep {
			norm += real(a)*real(a) + imag(a)*imag(a)
		} else {
			s.amp[i] = 0
		}
	}
	if norm < 1e-12 {
		panic(fmt.Sprintf("quantum: projecting qubit %d to impossible outcome %d", q, outcome))
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range s.amp {
		s.amp[i] *= inv
	}
}
