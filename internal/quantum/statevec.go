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
// imaginary half of the complex multiply, the real kernels' runs have
// AVX2 twins on amd64 (runs.go), measurement is two passes (one
// probability pass that accumulates both outcome weights, one combined
// collapse+renormalize+compact pass) and a classical qubit's norm sum is
// kept until the next write, and EPR is one pass. Every kernel runs on
// its caller's goroutine: shots, not kernels, run concurrently (DESIGN.md §9).
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
	// norm is probPair's sum for a classical qubit while normOK: no write since.
	norm   float64
	normOK bool
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
	s.norm, s.normOK = 1, true
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
// zero — the full-vector layout of those two halves. Top-down, because it
// expands in place.
func (s *State) insert(q int) {
	h := 1 << uint(s.pos(q))
	v := s.bit(q)
	old := s.amp
	amp := old[:2*len(old)]
	for base := len(old) - h; base >= 0; base -= h {
		copy(amp[2*base+v*h:2*base+(v+1)*h], old[base:base+h])
		clear(amp[2*base+(1-v)*h : 2*base+(2-v)*h])
	}
	s.amp, s.normOK = amp, false
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
	realOnly, vec := imag(lo) == 0 && imag(hi) == 0, vectorRuns(h)
	lr, hr := real(lo), real(hi)
	for base := len(old) - h; base >= 0; base -= h {
		src := old[base : base+h : base+h]
		p0 := amp[2*base : 2*base+h : 2*base+h]
		p1 := amp[2*base+h : 2*base+2*h : 2*base+2*h]
		switch {
		case realOnly && vec:
			splitRunAVX2(p0, p1, src, lr, hr)
		case realOnly:
			splitRun(p0, p1, src, lr, hr)
		default:
			for i, x := range src {
				p1[i] = hi * x
				p0[i] = lo * x
			}
		}
	}
	s.amp, s.normOK = amp, false
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
	s.normOK = false
	if imag(f) == 0 {
		n := len(s.amp)
		scaleNest(s.amp, 0, n, n, n, n, real(f)) // one run
		return
	}
	for i := range s.amp {
		s.amp[i] *= f
	}
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
	s.normOK = false
	if b == 0 && c == 0 {
		s.applyDiag1(q, a, d)
		return
	}
	amp, h := s.amp, 1<<uint(s.pos(q))
	if imag(a) == 0 && imag(b) == 0 && imag(c) == 0 && imag(d) == 0 {
		ar, br, cr, dr := real(a), real(b), real(c), real(d)
		if vectorRuns(h) {
			for base := 0; base < len(amp); base += 2 * h {
				mixRunAVX2(amp[base:base+h], amp[base+h:base+2*h], ar, br, cr, dr)
			}
			return
		}
		for base := 0; base < len(amp); base += 2 * h {
			mixRun(amp[base:base+h:base+h], amp[base+h:base+2*h:base+2*h], ar, br, cr, dr)
		}
		return
	}
	for base := 0; base < len(amp); base += 2 * h {
		p0 := amp[base : base+h : base+h]
		p1 := amp[base+h : base+2*h : base+2*h]
		for i := range p0 {
			a0, a1 := p0[i], p1[i]
			p0[i] = a*a0 + b*a1
			p1[i] = c*a0 + d*a1
		}
	}
}

// applyDiag1 applies diag(d0, d1) to active qubit q: pure scaling, no pair
// loads.
func (s *State) applyDiag1(q int, d0, d1 complex128) {
	amp, h := s.amp, 1<<uint(s.pos(q))
	switch {
	case d0 == 1 && d1 == -1: // Z: a real scaling beats a full complex multiply
		scaleNest(amp, h, len(amp), 2*h, h, h, -1)
	case d0 == 1:
		for base := 0; base < len(amp); base += 2 * h {
			p1 := amp[base+h : base+2*h]
			for i := range p1 {
				p1[i] *= d1
			}
		}
	default:
		for base := 0; base < len(amp); base += 2 * h {
			p0 := amp[base : base+h : base+h]
			p1 := amp[base+h : base+2*h : base+2*h]
			for i := range p0 {
				p0[i] *= d0
				p1[i] *= d1
			}
		}
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
	s.normOK = false
	h := 1 << uint(s.pos(q))
	swapNest(s.amp, 0, len(s.amp), 2*h, h, h, h)
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
	s.normOK = false
	cb, tb := 1<<uint(s.pos(ctrl)), 1<<uint(s.pos(tgt))
	if cb > tb {
		swapNest(s.amp, cb, len(s.amp), 2*cb, cb, tb, tb)
		return
	}
	swapNest(s.amp, cb, len(s.amp), 2*tb, tb-cb, cb, tb)
}

// CZ applies a controlled-Z (symmetric).
func (s *State) CZ(a, b int) { s.controlledPhase(a, b, -1) }

// CPhase applies a controlled phase rotation (QFT's primitive).
func (s *State) CPhase(a, b int, theta float64) {
	s.controlledPhase(a, b, cmplx.Exp(complex(0, theta)))
}

// controlledPhase multiplies the amplitudes with both a and b set by ph
// (symmetric): with a classical qubit, nothing or diag(1, ph) on the
// other; otherwise a scaling of the both-bits-set quarter, visited
// directly, and a real one for CZ's -1, which negates exactly.
func (s *State) controlledPhase(a, b int, ph complex128) {
	s.check(a)
	s.check(b)
	if a == b {
		panic("quantum: controlled phase with a == b")
	}
	if !s.isActive(a) {
		a, b = b, a // a classical operand, if there is one, goes second
	}
	if !s.isActive(b) {
		if s.bit(b) == 1 {
			s.Apply1(a, 1, 0, 0, ph)
		}
		return
	}
	s.normOK = false
	amp := s.amp
	hb, lb := 1<<uint(max(s.pos(a), s.pos(b))), 1<<uint(min(s.pos(a), s.pos(b)))
	if ph == -1 {
		scaleNest(amp, hb+lb, len(amp), 2*hb, hb-lb, lb, -1)
		return
	}
	for base := hb; base < len(amp); base += 2 * hb {
		for j := base + lb; j < base+hb; j += 2 * lb {
			seg := amp[j : j+lb]
			for i := range seg {
				seg[i] *= ph
			}
		}
	}
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
	s.normOK = false
	hb, lb := 1<<uint(max(s.pos(a), s.pos(b))), 1<<uint(min(s.pos(a), s.pos(b)))
	// hb set and lb clear, against hb clear and lb set.
	swapNest(s.amp, hb, len(s.amp), 2*hb, hb, lb, lb-hb)
}

// EPR applies H to a, then CNOT from a to b. When both are classical at
// 0, as Exec's two resets leave a pair, that is one top-down pass: each
// amplitude x becomes x·(1/√2) at a, b = 00 and 11 and an exact zero at
// 01 and 10, the values H and CNOT leave after three passes.
func (s *State) EPR(a, b int) {
	s.check(a)
	s.check(b)
	pair := uint32(1)<<uint(a) | uint32(1)<<uint(b)
	if a == b || (s.active|s.bits)&pair != 0 {
		s.H(a)
		s.CNOT(a, b) // which panics on a == b
		return
	}
	s.active |= pair
	l, h := 1<<uint(min(s.pos(a), s.pos(b))), 1<<uint(max(s.pos(a), s.pos(b)))
	// An old run starts at a multiple of l; its index bits below h/2 move up
	// one place and the rest up two, opening the pair's two bits.
	mid := h/2 - 1
	old := s.amp
	amp := old[:4*len(old)]
	r := real(invSqrt2)
	vec := vectorRuns(l)
	for base := len(old) - l; base >= 0; base -= l {
		nb := (base&mid)<<1 | (base&^mid)<<2
		p00, p11, src := amp[nb:nb+l:nb+l], amp[nb+h+l:nb+h+2*l:nb+h+2*l], old[base:base+l:base+l]
		if vec {
			splitRunAVX2(p00, p11, src, r, r)
		} else {
			splitRun(p00, p11, src, r, r)
		}
		clear(amp[nb+l : nb+2*l])
		clear(amp[nb+h : nb+h+l])
	}
	s.amp, s.normOK = amp, false
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
// norm, which is not exactly 1, kept in s.norm until amp is written) and
// the other class is empty. The sum stays one ascending chain: splitting
// it would change the last-ulp value the measurement draw compares against.
func (s *State) probPair(q int) (p0, p1 float64) {
	amp := s.amp
	if !s.isActive(q) {
		if !s.normOK {
			s.norm, s.normOK = sumSquares(amp), true
		}
		p0 = s.norm
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
// array halves and q becomes classical.
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
	if vectorRuns(h) {
		for base := 0; base < half; base += h {
			scaleRunAVX2(amp[base:base+h], amp[2*base+outcome*h:2*base+(outcome+1)*h], inv)
		}
	} else {
		for base := 0; base < half; base += h {
			scaleRun(amp[base:base+h:base+h], amp[2*base+outcome*h:2*base+(outcome+1)*h], inv)
		}
	}
	s.amp, s.normOK = amp[:half], false
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
func (s *State) Norm() float64 { return math.Sqrt(sumSquares(s.amp)) }

// sumSquares is Σ|a|² in index order.
func sumSquares(amp []complex128) float64 {
	p := 0.0
	for _, a := range amp {
		p += real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}
