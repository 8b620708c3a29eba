// Package stabilizer implements an Aaronson–Gottesman CHP tableau simulator
// for Clifford circuits with measurement. It scales to the thousands of
// qubits the paper's benchmarks use (adder_n1153, w_state_n1000, ...) and is
// the semantic oracle for the dynamic-circuit transforms: a long-range CNOT
// realized with ancillas, measurements and feed-forward corrections must
// leave the same stabilizer state as the textbook CNOT.
//
// The layout is column-major (DESIGN.md §9): x[q] and z[q] are bit-vectors
// over the 2n tableau rows, so a single-qubit gate is a handful of word
// operations over (2n+63)/64 words instead of a branch per row, CZ is a
// native word-parallel sign rule instead of H·CNOT·H, SWAP is a column
// pointer exchange, and both measurement branches are allocation-free:
// the random branch folds every anticommuting row's phase update into
// bitsliced mod-4 planes, and the deterministic branch reads the sign of
// the stabilizer product off exclusive-prefix parities without cloning
// the tableau. The previous row-major implementation is retained verbatim
// in reference_test.go as RefTableau, the oracle the property tests
// compare against; the two are bit-identical row for row after any
// gate/measurement sequence.
package stabilizer

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Tableau holds the destabilizer rows (0..n-1) and stabilizer rows
// (n..2n-1) of a CHP tableau, column-major: x[q][w] packs the X bits of
// qubit q for rows 64w..64w+63, z likewise, r is the sign bit-vector over
// rows. Not safe for concurrent use (measurement shares scratch planes).
type Tableau struct {
	n  int
	rw int        // words per row bit-vector (covers 2n rows)
	x  [][]uint64 // [qubit][rowWord]
	z  [][]uint64
	r  []uint64 // sign bit per row

	maskStab []uint64 // rows n..2n-1
	maskDest []uint64 // rows 0..n-1
	sel      []uint64 // scratch: target-row selection
	selw     []int    // scratch: indices of nonzero sel words
	lo, hi   []uint64 // scratch: bitsliced mod-4 phase planes
}

// New returns the tableau of |0...0>: destabilizers X_i, stabilizers Z_i.
func New(n int) *Tableau {
	if n < 1 {
		panic("stabilizer: need at least one qubit")
	}
	rw := (2*n + 63) / 64
	t := &Tableau{
		n: n, rw: rw,
		x: make([][]uint64, n), z: make([][]uint64, n),
		r:        make([]uint64, rw),
		maskStab: make([]uint64, rw),
		maskDest: make([]uint64, rw),
		sel:      make([]uint64, rw),
		selw:     make([]int, 0, rw),
		lo:       make([]uint64, rw),
		hi:       make([]uint64, rw),
	}
	for q := 0; q < n; q++ {
		t.x[q] = make([]uint64, rw)
		t.z[q] = make([]uint64, rw)
	}
	for i := 0; i < n; i++ {
		setBit(t.maskDest, i)
		setBit(t.maskStab, n+i)
	}
	t.seed()
	return t
}

// seed writes the |0...0> generators into zeroed columns.
func (t *Tableau) seed() {
	for q := 0; q < t.n; q++ {
		setBit(t.x[q], q)     // destabilizer X_q
		setBit(t.z[q], t.n+q) // stabilizer Z_q
	}
}

// NumQubits returns n.
func (t *Tableau) NumQubits() int { return t.n }

// Reset returns the tableau to |0...0> in place, reusing the bit-vectors.
func (t *Tableau) Reset() {
	for q := 0; q < t.n; q++ {
		clearWords(t.x[q])
		clearWords(t.z[q])
	}
	clearWords(t.r)
	t.seed()
}

// Clone deep-copies the tableau (scratch planes are fresh, masks shared —
// they are immutable after New).
func (t *Tableau) Clone() *Tableau {
	c := &Tableau{
		n: t.n, rw: t.rw,
		x: make([][]uint64, t.n), z: make([][]uint64, t.n),
		r:        append([]uint64{}, t.r...),
		maskStab: t.maskStab,
		maskDest: t.maskDest,
		sel:      make([]uint64, t.rw),
		selw:     make([]int, 0, t.rw),
		lo:       make([]uint64, t.rw),
		hi:       make([]uint64, t.rw),
	}
	for q := 0; q < t.n; q++ {
		c.x[q] = append([]uint64{}, t.x[q]...)
		c.z[q] = append([]uint64{}, t.z[q]...)
	}
	return c
}

func (t *Tableau) check(q int) {
	if q < 0 || q >= t.n {
		panic(fmt.Sprintf("stabilizer: qubit %d out of range (n=%d)", q, t.n))
	}
}

// H applies a Hadamard to qubit q: sign flips where X and Z are both set,
// then the X and Z columns exchange — a pointer swap after the sign pass.
func (t *Tableau) H(q int) {
	t.check(q)
	x, z, r := t.x[q], t.z[q], t.r
	for w := range r {
		r[w] ^= x[w] & z[w]
	}
	t.x[q], t.z[q] = z, x
}

// S applies the phase gate to qubit q.
func (t *Tableau) S(q int) {
	t.check(q)
	x, z, r := t.x[q], t.z[q], t.r
	for w := range r {
		r[w] ^= x[w] & z[w]
		z[w] ^= x[w]
	}
}

// Sdg applies S† (the fused word-parallel form of S·Z).
func (t *Tableau) Sdg(q int) {
	t.check(q)
	x, z, r := t.x[q], t.z[q], t.r
	for w := range r {
		r[w] ^= x[w] &^ z[w]
		z[w] ^= x[w]
	}
}

// X applies a Pauli X to qubit q.
func (t *Tableau) X(q int) {
	t.check(q)
	z, r := t.z[q], t.r
	for w := range r {
		r[w] ^= z[w]
	}
}

// Z applies a Pauli Z to qubit q.
func (t *Tableau) Z(q int) {
	t.check(q)
	x, r := t.x[q], t.r
	for w := range r {
		r[w] ^= x[w]
	}
}

// Y applies a Pauli Y to qubit q.
func (t *Tableau) Y(q int) {
	t.check(q)
	x, z, r := t.x[q], t.z[q], t.r
	for w := range r {
		r[w] ^= x[w] ^ z[w]
	}
}

// CNOT applies a controlled-X with control c and target tg.
func (t *Tableau) CNOT(c, tg int) {
	t.check(c)
	t.check(tg)
	if c == tg {
		panic("stabilizer: cnot with ctrl == tgt")
	}
	xc, zc, xt, zt, r := t.x[c], t.z[c], t.x[tg], t.z[tg], t.r
	for w := range r {
		r[w] ^= xc[w] & zt[w] &^ (xt[w] ^ zc[w])
		xt[w] ^= xc[w]
		zc[w] ^= zt[w]
	}
}

// CZ applies a controlled-Z natively: the sign rule below is the exact
// word-parallel reduction of the H·CNOT·H decomposition (the three per-row
// flips collapse to x_a & x_b & (z_a ^ z_b)), so the resulting rows are
// bit-identical to the decomposed form at a third of the passes.
func (t *Tableau) CZ(a, b int) {
	t.check(a)
	t.check(b)
	if a == b {
		panic("stabilizer: cz with a == b")
	}
	xa, za, xb, zb, r := t.x[a], t.z[a], t.x[b], t.z[b], t.r
	for w := range r {
		r[w] ^= xa[w] & xb[w] & (za[w] ^ zb[w])
		za[w] ^= xb[w]
		zb[w] ^= xa[w]
	}
}

// SWAP exchanges qubits a and b — a column pointer exchange, O(1). SWAP
// conjugation relabels qubits without sign changes, so this is row-exact
// with the legacy three-CNOT decomposition.
func (t *Tableau) SWAP(a, b int) {
	t.check(a)
	t.check(b)
	t.x[a], t.x[b] = t.x[b], t.x[a]
	t.z[a], t.z[b] = t.z[b], t.z[a]
}

// anticommuting returns the lowest stabilizer row whose X bit at q is set,
// or -1 when every stabilizer commutes with Z_q (deterministic outcome).
func (t *Tableau) anticommuting(q int) int {
	x := t.x[q]
	for w := range x {
		if v := x[w] & t.maskStab[w]; v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// MeasureZ performs a Z-basis measurement of qubit q. Random outcomes are
// drawn from rng (one Float64 per random measurement); deterministic
// outcomes are read off the tableau without touching it.
func (t *Tableau) MeasureZ(q int, rng *rand.Rand) int {
	t.check(q)
	p := t.anticommuting(q)
	if p < 0 {
		return t.parityOutcome(q)
	}
	outcome := 0
	if rng.Float64() < 0.5 {
		outcome = 1
	}
	t.collapse(q, p, outcome)
	return outcome
}

// MeasureDeterministic reports whether measuring q would give a definite
// outcome, and that outcome (0/1) when it is definite, without collapsing.
// Read-only and allocation-free (the legacy path cloned the full tableau).
func (t *Tableau) MeasureDeterministic(q int) (outcome int, deterministic bool) {
	t.check(q)
	if t.anticommuting(q) >= 0 {
		return 0, false
	}
	return t.parityOutcome(q), true
}

// collapse performs the random-outcome update: every row anticommuting
// with Z_q (except pivot p) is multiplied by row p, then the pivot pair is
// rotated (destabilizer p-n := old row p, row p := ±Z_q).
//
// The row multiplications are bitsliced: the Aaronson–Gottesman phase
// exponent (mod 4) of every target row accumulates simultaneously in two
// bit-planes (lo = bit 0, hi = bit 1). Per qubit column the source row
// contributes +1/-1 exactly where the legacy rowsum's g() did, applied as
// word-parallel increments (carry = lo&pos) and decrements (borrow =
// ^lo&neg), so the final hi plane equals the legacy (total mod 4) >> 1
// sign for every target row at once.
//
// Both steps touch one column at a time and the multiplication never
// writes row p (it is not a target), so the rotation of column j rides in
// the same pass, with the word and bit offsets of rows p and d hoisted.
// Words without a target row are skipped: every update below is masked by
// sel[w]. Columns where row p is I — most of them, in a sparse state —
// skip both, since there the product changes nothing and the rotation only
// clears destabilizer d's bits (DESIGN.md §9).
func (t *Tableau) collapse(q, p, outcome int) {
	sel, lo, hi, r := t.sel, t.lo, t.hi, t.r
	copy(sel, t.x[q])
	clearBit(sel, p)
	// Phase planes start at 2*r_target + 2*r_p (mod 4): hi = r ^ r_p.
	rp := -(bitOf(r, p)) // 0 or all-ones
	selw := t.selw[:0]
	for w := range sel {
		if sel[w] != 0 {
			selw = append(selw, w)
			lo[w] = 0
			hi[w] = (r[w] ^ rp) & sel[w]
		}
	}
	t.selw = selw
	d := p - t.n
	pw, pb := p>>6, uint(p&63)
	dw, db := d>>6, uint(d&63)
	for j := 0; j < t.n; j++ {
		xs, zs := t.x[j], t.z[j]
		x1, z1 := xs[pw]>>pb&1, zs[pw]>>pb&1
		if x1|z1 == 0 {
			// Row p has no support here: no product, and of the rotation
			// only destabilizer d's bits change (to 0).
			xs[dw] &^= 1 << db
			zs[dw] &^= 1 << db
			continue
		}
		switch {
		case x1 == 1 && z1 == 0: // source X: +1 on Y targets, -1 on Z targets
			for _, w := range selw {
				x2, z2, s := xs[w], zs[w], sel[w]
				pos := x2 & z2 & s
				neg := z2 &^ x2 & s
				lo[w], hi[w] = lo[w]^pos, hi[w]^(lo[w]&pos)
				hi[w] ^= ^lo[w] & neg
				lo[w] ^= neg
				xs[w] = x2 ^ s
			}
		case x1 == 0 && z1 == 1: // source Z: +1 on X targets, -1 on Y targets
			for _, w := range selw {
				x2, z2, s := xs[w], zs[w], sel[w]
				pos := x2 &^ z2 & s
				neg := x2 & z2 & s
				lo[w], hi[w] = lo[w]^pos, hi[w]^(lo[w]&pos)
				hi[w] ^= ^lo[w] & neg
				lo[w] ^= neg
				zs[w] = z2 ^ s
			}
		default: // source Y: +1 on Z targets, -1 on X targets
			for _, w := range selw {
				x2, z2, s := xs[w], zs[w], sel[w]
				pos := z2 &^ x2 & s
				neg := x2 &^ z2 & s
				lo[w], hi[w] = lo[w]^pos, hi[w]^(lo[w]&pos)
				hi[w] ^= ^lo[w] & neg
				lo[w] ^= neg
				xs[w] = x2 ^ s
				zs[w] = z2 ^ s
			}
		}
		// Pivot rotation: destabilizer d takes old row p, row p clears.
		xs[pw] &^= 1 << pb
		zs[pw] &^= 1 << pb
		xs[dw] = xs[dw]&^(1<<db) | x1<<db
		zs[dw] = zs[dw]&^(1<<db) | z1<<db
	}
	for _, w := range selw {
		r[w] = r[w]&^sel[w] | hi[w]&sel[w]
	}
	// The signs rotate likewise, and row p becomes ±Z_q.
	writeBit(r, d, bitOf(r, p))
	setBit(t.z[q], p)
	writeBit(r, p, uint64(outcome))
}

// parityOutcome computes a deterministic measurement outcome: the sign of
// the product of the stabilizer rows n+i over destabilizers i that
// anticommute with Z_q, read off without mutating anything.
//
// The legacy path accumulated that product into a scratch row, one rowsum
// per factor. Here the accumulated row's bits at each step are exclusive
// prefix-XORs of the selected stabilizers' bits, so per qubit column the
// whole phase sum evaluates word-parallel: prefix parities via the
// doubling shift-XOR, the rowsum g() terms as bitwise masks, popcounts
// into one exact mod-4 total.
func (t *Tableau) parityOutcome(q int) int {
	sel := t.sel
	// sel = (x[q] & maskDest) << n : selected stabilizer rows, in row order.
	s, b := t.n/64, uint(t.n%64)
	for w := t.rw - 1; w >= 0; w-- {
		var v uint64
		if w-s >= 0 {
			v = (t.x[q][w-s] & t.maskDest[w-s]) << b
			if b > 0 && w-s-1 >= 0 {
				v |= (t.x[q][w-s-1] & t.maskDest[w-s-1]) >> (64 - b)
			}
		}
		sel[w] = v
	}
	// Words with no selected rows contribute nothing — every pos/neg term
	// and both carry updates are masked by sel[w] — so the O(n) column loop
	// walks only the nonzero words. The selection lives entirely in the
	// stabilizer half of the rows, so this skips at least half the words and
	// all of them for sparse selections.
	selw := t.selw[:0]
	total, rows := 0, 0
	for w := range sel {
		if sel[w] != 0 {
			selw = append(selw, w)
			rows += bits.OnesCount64(sel[w])
			total += 2 * bits.OnesCount64(t.r[w]&sel[w])
		}
	}
	t.selw = selw
	if rows <= 1 {
		// One factor (or none): the product is that row, the outcome its
		// sign. Every pos/neg term below needs a set px or pz bit, and an
		// exclusive prefix over a single selected row is zero at that row.
		return total >> 1
	}
	for j := 0; j < t.n; j++ {
		xs, zs := t.x[j], t.z[j]
		var cx, cz uint64 // running parity of lower words, 0 or all-ones
		for _, w := range selw {
			sx, sz := xs[w]&sel[w], zs[w]&sel[w]
			ix, iz := prefixXor(sx), prefixXor(sz)
			px, pz := ix<<1^cx, iz<<1^cz // exclusive prefix parities
			cx ^= -(ix >> 63)
			cz ^= -(iz >> 63)
			pos := sx&sz&^px&pz | sx&^sz&px&pz | sz&^sx&px&^pz
			neg := sx&sz&px&^pz | sx&^sz&^px&pz | sz&^sx&px&pz
			total += bits.OnesCount64(pos) - bits.OnesCount64(neg)
		}
	}
	total %= 4
	if total < 0 {
		total += 4
	}
	return total >> 1
}

// prefixXor returns the inclusive prefix parity of v: bit k of the result
// is the XOR of bits 0..k of v.
func prefixXor(v uint64) uint64 {
	v ^= v << 1
	v ^= v << 2
	v ^= v << 4
	v ^= v << 8
	v ^= v << 16
	v ^= v << 32
	return v
}

// Row bit-vector helpers.
func bitOf(v []uint64, i int) uint64 { return v[i>>6] >> uint(i&63) & 1 }
func setBit(v []uint64, i int)       { v[i>>6] |= 1 << uint(i&63) }
func clearBit(v []uint64, i int)     { v[i>>6] &^= 1 << uint(i&63) }
func writeBit(v []uint64, i int, b uint64) {
	v[i>>6] = v[i>>6]&^(1<<uint(i&63)) | b<<uint(i&63)
}
func clearWords(v []uint64) {
	for i := range v {
		v[i] = 0
	}
}

// StabilizerString renders stabilizer row k (0..n-1) as a Pauli string like
// "+XZII". Useful in tests and debugging.
func (t *Tableau) StabilizerString(k int) string {
	row := t.n + k
	var sb strings.Builder
	if bitOf(t.r, row) != 0 {
		sb.WriteByte('-')
	} else {
		sb.WriteByte('+')
	}
	for q := 0; q < t.n; q++ {
		x, z := bitOf(t.x[q], row), bitOf(t.z[q], row)
		switch {
		case x == 1 && z == 1:
			sb.WriteByte('Y')
		case x == 1:
			sb.WriteByte('X')
		case z == 1:
			sb.WriteByte('Z')
		default:
			sb.WriteByte('I')
		}
	}
	return sb.String()
}
