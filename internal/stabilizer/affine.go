package stabilizer

import (
	"math/bits"
	"math/rand"
)

// On a tableau, which measurements of a fixed gate/measure sequence are
// random, and how every outcome depends on the random ones, does not
// depend on the shot: the X/Z bits evolve independently of the signs, the
// pivot of a random measurement is chosen from X bits alone, and every
// sign update is XOR with something — a gate XORs in a function of X/Z
// bits, a collapse XORs the pivot row's sign into the rows it multiplies
// and installs the fresh outcome as one sign, a deterministic measurement
// XORs selected signs together. So each sign is an affine form over GF(2)
// in the random draws, and so is each outcome: outcomes = c ⊕ A·b.
//
// Symbolic computes (c, A) in one pass over the sequence; Affine samples
// from it with the RNG consumption of the tableau — one Float64 per random
// measurement, in sequence order — so a sample is bit-identical to
// running the sequence through MeasureZ under the same seed.

// Symbolic runs a sequence over a tableau with symbolic signs. The
// tableau itself carries the X/Z bits and the constant term of every sign
// (it is the concrete run in which every draw came up 0); lin carries the
// linear terms of the stabilizer rows — destabilizer signs never reach a
// stabilizer sign or an outcome, so theirs are not tracked. Gates touch
// only constant terms, so the caller applies them to the tableau directly
// and routes measurements through MeasureZ.
type Symbolic struct {
	t     *Tableau
	words int      // words per form: covers one draw per measurement
	lin   []uint64 // stabilizer row n+i's form is lin[i*words : (i+1)*words]
	draws int
	c     []uint8
	rows  []uint64 // measurement j's form, stride words
}

// NewSymbolic resets t to |0...0> and starts a pass of at most maxMeas
// measurements over it.
func NewSymbolic(t *Tableau, maxMeas int) *Symbolic {
	t.Reset()
	words := (maxMeas + 63) / 64
	return &Symbolic{t: t, words: words, lin: make([]uint64, t.n*words)}
}

// form returns the linear terms of stabilizer row n+i.
func (s *Symbolic) form(i int) []uint64 { return s.lin[i*s.words : (i+1)*s.words] }

// MeasureZ measures qubit q symbolically. A random measurement becomes
// the next draw; a deterministic one becomes the XOR of the stabilizer
// signs parityOutcome would fold.
func (s *Symbolic) MeasureZ(q int) {
	t := s.t
	t.check(q)
	s.rows = append(s.rows, make([]uint64, s.words)...)
	out := s.rows[len(s.rows)-s.words:]
	p := t.anticommuting(q)
	if p < 0 {
		for i := 0; i < t.n; i++ {
			if bitOf(t.x[q], i) != 0 {
				xorWords(out, s.form(i))
			}
		}
		s.c = append(s.c, uint8(t.parityOutcome(q)))
		return
	}
	// collapse multiplies every other row anticommuting with Z_q by row p
	// (sign ^= row p's sign ^ a function of X/Z bits), then makes row p ±Z_q
	// with the outcome as its sign.
	pivot := s.form(p - t.n)
	for i := 0; i < t.n; i++ {
		if t.n+i != p && bitOf(t.x[q], t.n+i) != 0 {
			xorWords(s.form(i), pivot)
		}
	}
	t.collapse(q, p, 0)
	clearWords(pivot)
	setBit(pivot, s.draws)
	setBit(out, s.draws)
	s.draws++
	s.c = append(s.c, 0)
}

// Affine returns the outcome map of the measurements seen so far.
func (s *Symbolic) Affine() *Affine {
	a := &Affine{draws: s.draws, words: (s.draws + 63) / 64, c: s.c}
	a.rows = make([]uint64, len(s.c)*a.words)
	for j := range s.c {
		copy(a.rows[j*a.words:(j+1)*a.words], s.rows[j*s.words:])
	}
	a.b = make([]uint64, a.words)
	return a
}

// Affine is the outcome map of a fixed Clifford+measurement sequence:
// measurement j yields c[j] ⊕ ⟨rows[j], b⟩ for draw vector b. A random
// measurement's row is the unit vector of its own draw. Not safe for
// concurrent use (Sample shares the draw scratch).
type Affine struct {
	draws int // random measurements: the Float64 draws one Sample takes
	words int // words per row: covers draws
	c     []uint8
	rows  []uint64 // stride words
	b     []uint64 // scratch: the sample's draws
}

// Sample draws one shot: out[j] receives measurement j's outcome.
func (a *Affine) Sample(rng *rand.Rand, out []int) {
	b := a.b
	clearWords(b)
	for k := 0; k < a.draws; k++ {
		if rng.Float64() < 0.5 {
			setBit(b, k)
		}
	}
	for j, c := range a.c {
		var acc uint64
		for w, v := range a.rows[j*a.words : (j+1)*a.words] {
			acc ^= v & b[w]
		}
		out[j] = int(c) ^ bits.OnesCount64(acc)&1
	}
}

func xorWords(dst, src []uint64) {
	for w := range dst {
		dst[w] ^= src[w]
	}
}
