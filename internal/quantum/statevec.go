// Package quantum implements a dense state-vector simulator. It is the
// semantic ground truth for small circuits: integration tests compare the
// measurement statistics of programs executed through the full
// Distributed-HISQ stack (compiler → HISQ binaries → controllers → chip
// model) against direct simulation here.
//
// The state is active-space (DESIGN.md §9): a qubit known to be in a
// computational basis state — never touched, just measured — is one
// classical bit and is absent from the amplitude array, which covers only
// the active qubits in ascending logical order. A dropped entry of the
// full 2^n vector is an exact zero and order is preserved, so every sum,
// every RNG draw and every surviving amplitude equals what the full-vector
// kernels compute. Those kernels are retained verbatim in reference_test.go
// as the oracle the property tests and BenchmarkKernels compare against.
//
// The kernels over the active array are written for throughput:
// single-qubit gates iterate pair blocks branch-free (outer stride
// 2^(p+1), inner run 2^p) instead of testing the qubit bit of every
// index, diagonal gates (Z/S/T/RZ/Phase/CZ/CPhase) scale amplitudes in
// place without loading pair partners, real matrices (H, RY) skip the
// imaginary half of the complex multiply, measurement is two passes (one
// probability pass that accumulates both outcome weights, one combined
// collapse+renormalize+compact pass), and large states fan element-wise
// kernels out across goroutines with a deterministic index-range
// partition.
package quantum

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
)

// MaxQubits bounds dense simulation; 2^26 amplitudes is ~1 GiB.
const MaxQubits = 26

// State is an n-qubit pure state. Qubit 0 is the least significant bit of
// the basis index.
type State struct {
	n      int
	active uint32 // bit q set: qubit q is in the amplitude array
	bits   uint32 // value of each classical (inactive) qubit; 0 for active ones
	// amp holds 2^popcount(active) amplitudes; bit p of its index is the
	// p-th lowest active qubit. Its capacity is 2^n, so a qubit is
	// inserted in place.
	amp []complex128
}

// NewState returns |0...0> on n qubits.
func NewState(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: unsupported qubit count %d", n))
	}
	s := &State{n: n, amp: make([]complex128, 1, 1<<uint(n))}
	s.amp[0] = 1
	return s
}

// NumQubits returns n.
func (s *State) NumQubits() int { return s.n }

// ActiveQubits returns how many qubits the amplitude array covers.
func (s *State) ActiveQubits() int { return bits.OnesCount32(s.active) }

// Reset returns the state to |0...0> in place, reusing the amplitude array.
func (s *State) Reset() {
	s.active, s.bits = 0, 0
	s.amp = s.amp[:1]
	s.amp[0] = 1
}

// Amplitude returns the amplitude of basis state idx of the full register.
func (s *State) Amplitude(idx int) complex128 {
	if uint32(idx)&^s.active != s.bits {
		return 0
	}
	j, p := 0, 0
	for m := s.active; m != 0; m &= m - 1 {
		j |= idx >> uint(bits.TrailingZeros32(m)) & 1 << uint(p)
		p++
	}
	return s.amp[j]
}

// dense returns the full 2^n amplitude vector: the amplitude array itself
// when every qubit is active, a fresh expansion otherwise.
func (s *State) dense() []complex128 {
	if s.ActiveQubits() == s.n {
		return s.amp
	}
	out := make([]complex128, 1<<uint(s.n))
	for j, a := range s.amp {
		idx, p := int(s.bits), 0
		for m := s.active; m != 0; m &= m - 1 {
			idx |= j >> uint(p) & 1 << uint(bits.TrailingZeros32(m))
			p++
		}
		out[idx] = a
	}
	return out
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := *s
	c.amp = make([]complex128, len(s.amp), cap(s.amp))
	copy(c.amp, s.amp)
	return &c
}

func (s *State) check(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("quantum: qubit %d out of range (n=%d)", q, s.n))
	}
}

// isActive reports whether q is in the amplitude array.
func (s *State) isActive(q int) bool { return s.active>>uint(q)&1 == 1 }

// bit returns the value of classical qubit q.
func (s *State) bit(q int) int { return int(s.bits >> uint(q) & 1) }

// pos returns the bit position of q in the amplitude index: the number of
// active qubits below it.
func (s *State) pos(q int) int { return bits.OnesCount32(s.active & (1<<uint(q) - 1)) }

// insert makes classical qubit q active: the array doubles, every
// amplitude moves to the half matching q's bit and the other half is
// zero — the full-vector layout of those two halves. Serial and top-down,
// because it expands in place.
func (s *State) insert(q int) {
	h := 1 << uint(s.pos(q))
	v := s.bit(q)
	old := s.amp
	amp := old[:2*len(old)]
	for base := len(old) - h; base >= 0; base -= h {
		copy(amp[2*base+v*h:2*base+(v+1)*h], old[base:base+h])
		clear(amp[2*base+(1-v)*h : 2*base+(2-v)*h])
	}
	s.amp = amp
	s.active |= 1 << uint(q)
	s.bits &^= 1 << uint(q)
}

// insertApply1 applies a 2x2 unitary to classical qubit q, whose bit
// selects the matrix column (lo, hi), and makes it active: amplitude x
// becomes the pair (lo·x, hi·x). The full-vector kernel computes
// lo·x + b·0 for that pair, which is the same value.
func (s *State) insertApply1(q int, lo, hi complex128) {
	h := 1 << uint(s.pos(q))
	old := s.amp
	amp := old[:2*len(old)]
	realOnly := imag(lo) == 0 && imag(hi) == 0
	lr, hr := real(lo), real(hi)
	for base := len(old) - h; base >= 0; base -= h {
		src := old[base : base+h : base+h]
		p0 := amp[2*base : 2*base+h : 2*base+h]
		p1 := amp[2*base+h : 2*base+2*h : 2*base+2*h]
		if realOnly {
			for i, x := range src {
				p1[i] = complex(hr*real(x), hr*imag(x))
				p0[i] = complex(lr*real(x), lr*imag(x))
			}
			continue
		}
		for i, x := range src {
			p1[i] = hi * x
			p0[i] = lo * x
		}
	}
	s.amp = amp
	s.active |= 1 << uint(q)
	s.bits &^= 1 << uint(q)
}

// scale multiplies every amplitude by f: what a gate that leaves a
// classical qubit classical, or the renormalisation after measuring one,
// does to the full vector's nonzero entries.
func (s *State) scale(f complex128) {
	if f == 1 {
		return
	}
	if imag(f) == 0 {
		forSpan(operands{amp: s.amp, a: f}, 1, func(o operands, lo, hi int) {
			seg, r := o.amp[lo:hi], real(o.a)
			for i, a := range seg {
				seg[i] = complex(real(a)*r, imag(a)*r)
			}
		})
		return
	}
	forSpan(operands{amp: s.amp, a: f}, 1, func(o operands, lo, hi int) {
		seg := o.amp[lo:hi]
		for i := range seg {
			seg[i] *= o.a
		}
	})
}

// Apply1 applies the 2x2 unitary {{a,b},{c,d}} to qubit q. On a classical
// qubit only the column its bit selects matters: a column with a zero
// entry (diagonal gates, X, Y) leaves it classical, any other inserts it.
// On an active qubit diagonal matrices take the scaling-only fast path,
// real ones the half-width multiply, general ones walk amplitude-pair
// blocks branch-free. Per-amplitude arithmetic is the same multiply-add
// sequence as the reference kernel, so results are bit-identical to the
// reference's (modulo the sign of zero terms it materializes by
// multiplying by a zero coefficient or a zero amplitude).
func (s *State) Apply1(q int, a, b, c, d complex128) {
	s.check(q)
	if !s.isActive(q) {
		bit := uint32(1) << uint(q)
		lo, hi := a, c
		if s.bit(q) == 1 {
			lo, hi = b, d
		}
		switch {
		case hi == 0:
			s.bits &^= bit
			s.scale(lo)
		case lo == 0:
			s.bits |= bit
			s.scale(hi)
		default:
			s.insertApply1(q, lo, hi)
		}
		return
	}
	if b == 0 && c == 0 {
		s.applyDiag1(q, a, d)
		return
	}
	h := 1 << uint(s.pos(q))
	o := operands{amp: s.amp, h: h, a: a, b: b, c: c, d: d}
	if imag(a) == 0 && imag(b) == 0 && imag(c) == 0 && imag(d) == 0 {
		forSpan(o, 2*h, func(o operands, lo, hi int) {
			amp, h := o.amp, o.h
			ar, br, cr, dr := real(o.a), real(o.b), real(o.c), real(o.d)
			for base := lo; base < hi; base += 2 * h {
				p0 := amp[base : base+h : base+h]
				p1 := amp[base+h : base+2*h : base+2*h]
				for i := range p0 {
					a0, a1 := p0[i], p1[i]
					p0[i] = complex(ar*real(a0)+br*real(a1), ar*imag(a0)+br*imag(a1))
					p1[i] = complex(cr*real(a0)+dr*real(a1), cr*imag(a0)+dr*imag(a1))
				}
			}
		})
		return
	}
	forSpan(o, 2*h, func(o operands, lo, hi int) {
		amp, h := o.amp, o.h
		for base := lo; base < hi; base += 2 * h {
			p0 := amp[base : base+h : base+h]
			p1 := amp[base+h : base+2*h : base+2*h]
			for i := range p0 {
				a0, a1 := p0[i], p1[i]
				p0[i] = o.a*a0 + o.b*a1
				p1[i] = o.c*a0 + o.d*a1
			}
		}
	})
}

// applyDiag1 applies diag(d0, d1) to active qubit q: pure scaling, no pair
// loads.
func (s *State) applyDiag1(q int, d0, d1 complex128) {
	h := 1 << uint(s.pos(q))
	o := operands{amp: s.amp, h: h, a: d0, d: d1}
	switch {
	case d0 == 1 && d1 == -1: // Z: negation beats a full complex multiply
		forSpan(o, 2*h, func(o operands, lo, hi int) {
			amp, h := o.amp, o.h
			for base := lo; base < hi; base += 2 * h {
				p1 := amp[base+h : base+2*h]
				for i := range p1 {
					p1[i] = -p1[i]
				}
			}
		})
	case d0 == 1:
		forSpan(o, 2*h, func(o operands, lo, hi int) {
			amp, h := o.amp, o.h
			for base := lo; base < hi; base += 2 * h {
				p1 := amp[base+h : base+2*h]
				for i := range p1 {
					p1[i] *= o.d
				}
			}
		})
	default:
		forSpan(o, 2*h, func(o operands, lo, hi int) {
			amp, h := o.amp, o.h
			for base := lo; base < hi; base += 2 * h {
				p0 := amp[base : base+h : base+h]
				p1 := amp[base+h : base+2*h : base+2*h]
				for i := range p0 {
					p0[i] *= o.a
					p1[i] *= o.d
				}
			}
		})
	}
}

var invSqrt2 = complex(1/math.Sqrt2, 0)

// H applies a Hadamard.
func (s *State) H(q int) { s.Apply1(q, invSqrt2, invSqrt2, invSqrt2, -invSqrt2) }

// X applies a Pauli X: a bit flip on a classical qubit, a swap of the two
// halves of every pair block on an active one.
func (s *State) X(q int) {
	s.check(q)
	if !s.isActive(q) {
		s.bits ^= 1 << uint(q)
		return
	}
	h := 1 << uint(s.pos(q))
	forSpan(operands{amp: s.amp, h: h}, 2*h, func(o operands, lo, hi int) {
		amp, h := o.amp, o.h
		for base := lo; base < hi; base += 2 * h {
			p0 := amp[base : base+h : base+h]
			p1 := amp[base+h : base+2*h : base+2*h]
			for i := range p0 {
				p0[i], p1[i] = p1[i], p0[i]
			}
		}
	})
}

// Y applies a Pauli Y.
func (s *State) Y(q int) { s.Apply1(q, 0, -1i, 1i, 0) }

// Z applies a Pauli Z.
func (s *State) Z(q int) { s.Apply1(q, 1, 0, 0, -1) }

// S applies the phase gate diag(1, i).
func (s *State) S(q int) { s.Apply1(q, 1, 0, 0, 1i) }

// Sdg applies S†.
func (s *State) Sdg(q int) { s.Apply1(q, 1, 0, 0, -1i) }

// T applies diag(1, e^{iπ/4}).
func (s *State) T(q int) { s.Apply1(q, 1, 0, 0, cmplx.Exp(1i*math.Pi/4)) }

// Tdg applies T†.
func (s *State) Tdg(q int) { s.Apply1(q, 1, 0, 0, cmplx.Exp(-1i*math.Pi/4)) }

// RX rotates about X by theta.
func (s *State) RX(q int, theta float64) {
	c, sn := complex(math.Cos(theta/2), 0), complex(0, -math.Sin(theta/2))
	s.Apply1(q, c, sn, sn, c)
}

// RY rotates about Y by theta.
func (s *State) RY(q int, theta float64) {
	c, sn := math.Cos(theta/2), math.Sin(theta/2)
	s.Apply1(q, complex(c, 0), complex(-sn, 0), complex(sn, 0), complex(c, 0))
}

// RZ rotates about Z by theta.
func (s *State) RZ(q int, theta float64) {
	s.Apply1(q, cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2)))
}

// Phase applies diag(1, e^{iθ}) — the controlled-phase building block of QFT.
func (s *State) Phase(q int, theta float64) {
	s.Apply1(q, 1, 0, 0, cmplx.Exp(complex(0, theta)))
}

// CNOT applies a controlled-X with the given control and target. A
// classical control resolves it to nothing or an X; an active control
// inserts a classical target. The iteration then visits only indices with
// the control bit set and the target bit clear, swapping contiguous runs
// with their target-set partners.
func (s *State) CNOT(ctrl, tgt int) {
	s.check(ctrl)
	s.check(tgt)
	if ctrl == tgt {
		panic("quantum: cnot with ctrl == tgt")
	}
	if !s.isActive(ctrl) {
		if s.bit(ctrl) == 1 {
			s.X(tgt)
		}
		return
	}
	if !s.isActive(tgt) {
		s.insert(tgt)
	}
	cb, tb := 1<<uint(s.pos(ctrl)), 1<<uint(s.pos(tgt))
	if cb > tb {
		forSpan(operands{amp: s.amp, h: cb, l: tb}, 2*cb, func(o operands, lo, hi int) {
			amp, cb, tb := o.amp, o.h, o.l
			for base := lo + cb; base < hi; base += 2 * cb {
				for j := base; j < base+cb; j += 2 * tb {
					p0 := amp[j : j+tb : j+tb]
					p1 := amp[j+tb : j+2*tb : j+2*tb]
					for i := range p0 {
						p0[i], p1[i] = p1[i], p0[i]
					}
				}
			}
		})
		return
	}
	forSpan(operands{amp: s.amp, h: tb, l: cb}, 2*tb, func(o operands, lo, hi int) {
		amp, tb, cb := o.amp, o.h, o.l
		for base := lo; base < hi; base += 2 * tb {
			for j := base + cb; j < base+tb; j += 2 * cb {
				p0 := amp[j : j+cb : j+cb]
				p1 := amp[j+tb : j+tb+cb : j+tb+cb]
				for i := range p0 {
					p0[i], p1[i] = p1[i], p0[i]
				}
			}
		}
	})
}

// CZ applies a controlled-Z (symmetric): with a classical qubit, nothing
// or a Z on the other; otherwise a pure negation of the quarter of the
// amplitudes with both bits set, visited directly.
func (s *State) CZ(a, b int) {
	s.check(a)
	s.check(b)
	if a == b {
		panic("quantum: cz with a == b")
	}
	if !s.isActive(a) {
		a, b = b, a // a classical operand, if there is one, goes second
	}
	if !s.isActive(b) {
		if s.bit(b) == 1 {
			s.Z(a)
		}
		return
	}
	hb, lb := 1<<uint(s.pos(a)), 1<<uint(s.pos(b))
	if hb < lb {
		hb, lb = lb, hb
	}
	forSpan(operands{amp: s.amp, h: hb, l: lb}, 2*hb, func(o operands, lo, hi int) {
		amp, hb, lb := o.amp, o.h, o.l
		for base := lo + hb; base < hi; base += 2 * hb {
			for j := base + lb; j < base+hb; j += 2 * lb {
				seg := amp[j : j+lb]
				for i := range seg {
					seg[i] = -seg[i]
				}
			}
		}
	})
}

// CPhase applies a controlled phase rotation (QFT's primitive): with a
// classical qubit, nothing or a Phase on the other; otherwise a pure
// scaling of the both-bits-set quarter, visited directly.
func (s *State) CPhase(a, b int, theta float64) {
	s.check(a)
	s.check(b)
	if a == b {
		panic("quantum: cphase with a == b")
	}
	if !s.isActive(a) {
		a, b = b, a // a classical operand, if there is one, goes second
	}
	if !s.isActive(b) {
		if s.bit(b) == 1 {
			s.Phase(a, theta)
		}
		return
	}
	ph := cmplx.Exp(complex(0, theta))
	hb, lb := 1<<uint(s.pos(a)), 1<<uint(s.pos(b))
	if hb < lb {
		hb, lb = lb, hb
	}
	forSpan(operands{amp: s.amp, h: hb, l: lb, a: ph}, 2*hb, func(o operands, lo, hi int) {
		amp, hb, lb := o.amp, o.h, o.l
		for base := lo + hb; base < hi; base += 2 * hb {
			for j := base + lb; j < base+hb; j += 2 * lb {
				seg := amp[j : j+lb]
				for i := range seg {
					seg[i] *= o.a
				}
			}
		}
	})
}

// SWAP exchanges two qubits: two classical ones trade bits; otherwise
// both become active and, in a single pass, every amplitude whose bits at
// (a, b) are (1, 0) trades places with its (0, 1) partner. The legacy
// three-CNOT scan survives as RefSWAP; both are exact permutations, so
// the results are bit-identical.
func (s *State) SWAP(a, b int) {
	s.check(a)
	s.check(b)
	if a == b {
		panic("quantum: swap with a == b")
	}
	if !s.isActive(a) && !s.isActive(b) {
		if s.bit(a) != s.bit(b) {
			s.bits ^= 1<<uint(a) | 1<<uint(b)
		}
		return
	}
	if !s.isActive(a) {
		s.insert(a)
	}
	if !s.isActive(b) {
		s.insert(b)
	}
	hb, lb := 1<<uint(s.pos(a)), 1<<uint(s.pos(b))
	if hb < lb {
		hb, lb = lb, hb
	}
	forSpan(operands{amp: s.amp, h: hb, l: lb}, 2*hb, func(o operands, lo, hi int) {
		amp, hb, lb := o.amp, o.h, o.l
		for base := lo + hb; base < hi; base += 2 * hb {
			for j := base; j < base+hb; j += 2 * lb {
				p0 := amp[j : j+lb : j+lb]                 // hb set, lb clear
				p1 := amp[j-hb+lb : j-hb+2*lb : j-hb+2*lb] // hb clear, lb set
				for i := range p0 {
					p0[i], p1[i] = p1[i], p0[i]
				}
			}
		}
	})
}

// Prob returns the probability of measuring qubit q as 1.
func (s *State) Prob(q int) float64 {
	s.check(q)
	_, p1 := s.probPair(q)
	return p1
}

// probPair accumulates both outcome weights in one pass. Each class is
// summed in ascending index order; the full-vector reference sums the
// same values in the same order with exact zeros in between, so p1
// matches RefProb bit-for-bit and p0 matches the norm RefProject computes
// for outcome 0. A classical qubit's own class is the whole array (the
// norm, which is not exactly 1) and the other class is empty. Serial on
// purpose: splitting a floating-point reduction across goroutines would
// change the summation order and with it the last-ulp value the
// measurement draw compares against.
func (s *State) probPair(q int) (p0, p1 float64) {
	amp := s.amp
	if !s.isActive(q) {
		for _, a := range amp {
			p0 += real(a)*real(a) + imag(a)*imag(a)
		}
		if s.bit(q) == 1 {
			p0, p1 = 0, p0
		}
		return p0, p1
	}
	h := 1 << uint(s.pos(q))
	for base := 0; base < len(amp); base += 2 * h {
		lo := amp[base : base+h : base+h]
		hi := amp[base+h : base+2*h : base+2*h]
		// One loop over both halves: each sum keeps its order, and the two
		// add chains overlap instead of waiting out their latency in turn.
		for i, a := range lo {
			b := hi[i]
			p0 += real(a)*real(a) + imag(a)*imag(a)
			p1 += real(b)*real(b) + imag(b)*imag(b)
		}
	}
	return p0, p1
}

// Measure performs a projective Z measurement of qubit q using rng for the
// outcome draw, collapsing the state. It returns 0 or 1.
//
// Two passes total: probPair reads the state once for both outcome
// weights, then collapse drops the discarded branch and renormalizes the
// kept one in a single combined pass, reusing the already-computed weight
// as the norm instead of re-summing it (the reference path takes three
// passes: probability, zero+norm, scale). A classical qubit is measured
// the same way — one draw, one renormalisation by the accumulated norm —
// because that is what the full vector would do.
func (s *State) Measure(q int, rng *rand.Rand) int {
	s.check(q)
	p0, p1 := s.probPair(q)
	outcome, norm := 0, p0
	if rng.Float64() < p1 {
		outcome, norm = 1, p1
	}
	s.collapse(q, outcome, norm)
	return outcome
}

// Project collapses qubit q to the given outcome and renormalizes. A
// zero-probability projection panics: it means the caller's outcome record
// diverged from the state, which is always a bug.
func (s *State) Project(q int, outcome int) {
	s.check(q)
	norm, p1 := s.probPair(q)
	if outcome == 1 {
		norm = p1
	}
	s.collapse(q, outcome, norm)
}

// collapse scales the kept outcome branch by 1/sqrt(norm) and, for an
// active qubit, compacts it over the discarded one in the same pass: the
// array halves and q becomes classical. Serial, because it compacts in
// place.
func (s *State) collapse(q int, outcome int, norm float64) {
	if norm < 1e-12 {
		panic(fmt.Sprintf("quantum: projecting qubit %d to impossible outcome %d", q, outcome))
	}
	inv := 1 / math.Sqrt(norm)
	if !s.isActive(q) {
		s.scale(complex(inv, 0))
		return
	}
	h := 1 << uint(s.pos(q))
	amp := s.amp
	half := len(amp) / 2
	for base := 0; base < half; base += h {
		dst := amp[base : base+h : base+h]
		keep := amp[2*base+outcome*h : 2*base+(outcome+1)*h]
		for i := range dst {
			dst[i] = complex(real(keep[i])*inv, imag(keep[i])*inv)
		}
	}
	s.amp = amp[:half]
	s.active &^= 1 << uint(q)
	s.bits |= uint32(outcome) << uint(q)
}

// Fidelity returns |<s|o>|^2.
func (s *State) Fidelity(o *State) float64 {
	if s.n != o.n {
		panic("quantum: fidelity of different-sized states")
	}
	var ip complex128
	sa, oa := s.dense(), o.dense()
	for i := range sa {
		ip += cmplx.Conj(sa[i]) * oa[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// Probabilities returns the full basis distribution (for small-n tests).
func (s *State) Probabilities() []float64 {
	amp := s.dense()
	out := make([]float64, len(amp))
	for i, a := range amp {
		out[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return out
}

// Norm returns the state norm (should always be ~1).
func (s *State) Norm() float64 {
	p := 0.0
	for _, a := range s.amp {
		p += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(p)
}
