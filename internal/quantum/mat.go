package quantum

import (
	"math"
	"math/cmplx"
)

// Mat2 is a 2x2 complex matrix {{A, B}, {C, D}} — the unit of single-qubit
// gate fusion. A chain of single-qubit gates on one qubit composes into
// one Mat2 (Mul2 right-to-left), which ApplyMat1 then applies in a single
// amplitude pass instead of one pass per gate. Fusion reassociates the
// per-amplitude arithmetic, so fused results agree with the sequential
// reference to rounding error, not bit-for-bit; the gate-dispatch paths
// (chip backends) apply gates one at a time for exactly that reason, and
// fusion is an explicit opt-in for callers that own a whole gate list
// (analysis code; no simulation path fuses).
type Mat2 struct {
	A, B complex128
	C, D complex128
}

// Mul2 returns the matrix product m·n: the composition that applies n
// first, then m.
func Mul2(m, n Mat2) Mat2 {
	return Mat2{
		A: m.A*n.A + m.B*n.C, B: m.A*n.B + m.B*n.D,
		C: m.C*n.A + m.D*n.C, D: m.C*n.B + m.D*n.D,
	}
}

// Fuse composes a gate chain into one matrix. Gates are given in
// application order (gates[0] acts first).
func Fuse(gates ...Mat2) Mat2 {
	out := MatI
	for _, g := range gates {
		out = Mul2(g, out)
	}
	return out
}

// ApplyMat1 applies m to qubit q in one amplitude pass (diagonal fast
// path included, via Apply1).
func (s *State) ApplyMat1(q int, m Mat2) { s.Apply1(q, m.A, m.B, m.C, m.D) }

// Fixed gate matrices for fusion chains.
var (
	MatI   = Mat2{A: 1, D: 1}
	MatH   = Mat2{A: invSqrt2, B: invSqrt2, C: invSqrt2, D: -invSqrt2}
	MatX   = Mat2{B: 1, C: 1}
	MatY   = Mat2{B: -1i, C: 1i}
	MatZ   = Mat2{A: 1, D: -1}
	MatS   = Mat2{A: 1, D: 1i}
	MatSdg = Mat2{A: 1, D: -1i}
	MatT   = Mat2{A: 1, D: cmplx.Exp(1i * math.Pi / 4)}
	MatTdg = Mat2{A: 1, D: cmplx.Exp(-1i * math.Pi / 4)}
)

// MatRX returns the X-rotation matrix for theta.
func MatRX(theta float64) Mat2 {
	c, sn := complex(math.Cos(theta/2), 0), complex(0, -math.Sin(theta/2))
	return Mat2{A: c, B: sn, C: sn, D: c}
}

// MatRY returns the Y-rotation matrix for theta.
func MatRY(theta float64) Mat2 {
	c, sn := math.Cos(theta/2), math.Sin(theta/2)
	return Mat2{A: complex(c, 0), B: complex(-sn, 0), C: complex(sn, 0), D: complex(c, 0)}
}

// MatRZ returns the Z-rotation matrix for theta.
func MatRZ(theta float64) Mat2 {
	return Mat2{A: cmplx.Exp(complex(0, -theta/2)), D: cmplx.Exp(complex(0, theta/2))}
}

// MatPhase returns diag(1, e^{iθ}).
func MatPhase(theta float64) Mat2 {
	return Mat2{A: 1, D: cmplx.Exp(complex(0, theta))}
}
