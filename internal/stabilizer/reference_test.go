package stabilizer

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// This file retains the pre-optimization row-major tableau verbatim as the
// semantic oracle for the column-major rewrite — the compileMonolithic
// pattern: the slow, obviously-correct implementation survives so the fast
// one can be proven against it forever. The property tests drive random
// Clifford+measurement circuits through both and require bit-identical
// rows and identical outcomes; BenchmarkKernels times the two against each
// other. Canonicalization also runs here (via Tableau.toRef) so canonical
// forms stay byte-identical to the legacy output.

// RefTableau holds 2n+1 rows (n destabilizers, n stabilizers, one scratch
// row) of X/Z bit-matrices plus sign bits, bit-packed 64 columns per word —
// the legacy row-major layout.
type RefTableau struct {
	n     int
	words int
	x     [][]uint64 // [row][word]
	z     [][]uint64
	r     []uint8 // sign bit per row (0 => +, 1 => -)
}

// NewRef returns the reference tableau of |0...0>.
func NewRef(n int) *RefTableau {
	if n < 1 {
		panic("stabilizer: need at least one qubit")
	}
	w := (n + 63) / 64
	t := &RefTableau{n: n, words: w}
	rows := 2*n + 1
	t.x = make([][]uint64, rows)
	t.z = make([][]uint64, rows)
	t.r = make([]uint8, rows)
	for i := range t.x {
		t.x[i] = make([]uint64, w)
		t.z[i] = make([]uint64, w)
	}
	for q := 0; q < n; q++ {
		t.x[q][q/64] |= 1 << uint(q%64)   // destabilizer X_q
		t.z[n+q][q/64] |= 1 << uint(q%64) // stabilizer Z_q
	}
	return t
}

// NumQubits returns n.
func (t *RefTableau) NumQubits() int { return t.n }

func (t *RefTableau) check(q int) {
	if q < 0 || q >= t.n {
		panic(fmt.Sprintf("stabilizer: qubit %d out of range (n=%d)", q, t.n))
	}
}

func (t *RefTableau) getBit(m [][]uint64, row, q int) uint64 {
	return m[row][q/64] >> uint(q%64) & 1
}

// Clone deep-copies the reference tableau.
func (t *RefTableau) Clone() *RefTableau {
	c := &RefTableau{n: t.n, words: t.words, r: append([]uint8{}, t.r...)}
	c.x = make([][]uint64, len(t.x))
	c.z = make([][]uint64, len(t.z))
	for i := range t.x {
		c.x[i] = append([]uint64{}, t.x[i]...)
		c.z[i] = append([]uint64{}, t.z[i]...)
	}
	return c
}

// H applies a Hadamard with the legacy branch-per-row loop.
func (t *RefTableau) H(q int) {
	t.check(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		xi, zi := t.x[i][w]&b, t.z[i][w]&b
		if xi != 0 && zi != 0 {
			t.r[i] ^= 1
		}
		if (xi != 0) != (zi != 0) {
			t.x[i][w] ^= b
			t.z[i][w] ^= b
		}
	}
}

// S applies the phase gate with the legacy branch-per-row loop.
func (t *RefTableau) S(q int) {
	t.check(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		if t.x[i][w]&b != 0 {
			if t.z[i][w]&b != 0 {
				t.r[i] ^= 1
			}
			t.z[i][w] ^= b
		}
	}
}

// Sdg applies S† as the legacy S·Z composition.
func (t *RefTableau) Sdg(q int) { t.S(q); t.Z(q) }

// X applies a Pauli X with the legacy branch-per-row loop.
func (t *RefTableau) X(q int) {
	t.check(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		if t.z[i][w]&b != 0 {
			t.r[i] ^= 1
		}
	}
}

// Z applies a Pauli Z with the legacy branch-per-row loop.
func (t *RefTableau) Z(q int) {
	t.check(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		if t.x[i][w]&b != 0 {
			t.r[i] ^= 1
		}
	}
}

// Y applies a Pauli Y with the legacy branch-per-row loop.
func (t *RefTableau) Y(q int) {
	t.check(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		if (t.x[i][w]&b != 0) != (t.z[i][w]&b != 0) {
			t.r[i] ^= 1
		}
	}
}

// CNOT applies a controlled-X with the legacy branch-per-row loop.
func (t *RefTableau) CNOT(c, tg int) {
	t.check(c)
	t.check(tg)
	if c == tg {
		panic("stabilizer: cnot with ctrl == tgt")
	}
	cw, cb := c/64, uint64(1)<<uint(c%64)
	tw, tb := tg/64, uint64(1)<<uint(tg%64)
	for i := 0; i < 2*t.n; i++ {
		xc := t.x[i][cw]&cb != 0
		zc := t.z[i][cw]&cb != 0
		xt := t.x[i][tw]&tb != 0
		zt := t.z[i][tw]&tb != 0
		if xc && zt && (xt == zc) {
			t.r[i] ^= 1
		}
		if xc {
			t.x[i][tw] ^= tb
		}
		if zt {
			t.z[i][cw] ^= cb
		}
	}
}

// CZ applies a controlled-Z as the legacy H·CNOT·H decomposition.
func (t *RefTableau) CZ(a, b int) {
	t.H(b)
	t.CNOT(a, b)
	t.H(b)
}

// SWAP exchanges qubits a and b as the legacy three-CNOT decomposition.
func (t *RefTableau) SWAP(a, b int) {
	t.CNOT(a, b)
	t.CNOT(b, a)
	t.CNOT(a, b)
}

// rowsum implements the Aaronson–Gottesman phase-tracking row addition:
// row h := row h * row i (Pauli product), with sign bookkeeping mod 4.
func (t *RefTableau) rowsum(h, i int) {
	// Phase exponent accumulated mod 4: 2*r_h + 2*r_i + sum g().
	total := 2*int(t.r[h]) + 2*int(t.r[i])
	for w := 0; w < t.words; w++ {
		x1, z1 := t.x[i][w], t.z[i][w] // row i
		x2, z2 := t.x[h][w], t.z[h][w] // row h
		pos := (x1 & z1 & ^x2 & z2) | (x1 & ^z1 & x2 & z2) | (^x1 & z1 & x2 & ^z2)
		neg := (x1 & z1 & x2 & ^z2) | (x1 & ^z1 & ^x2 & z2) | (^x1 & z1 & x2 & z2)
		total += bits.OnesCount64(pos) - bits.OnesCount64(neg)
		t.x[h][w] ^= x1
		t.z[h][w] ^= z1
	}
	total %= 4
	if total < 0 {
		total += 4
	}
	// Stabilizer-row sums always land on 0 or 2 (real sign). Destabilizer
	// rows may hit 1/3 (imaginary) — their signs are untracked by CHP, so
	// storing the high bit is sufficient there.
	t.r[h] = uint8(total >> 1)
}

// MeasureZ performs the legacy Z-basis measurement of qubit q.
func (t *RefTableau) MeasureZ(q int, rng *rand.Rand) int {
	out, _ := t.measure(q, func() int {
		if rng.Float64() < 0.5 {
			return 1
		}
		return 0
	})
	return out
}

// MeasureDeterministic is the legacy clone-then-measure definite-outcome
// probe the allocation-free rewrite replaced.
func (t *RefTableau) MeasureDeterministic(q int) (outcome int, deterministic bool) {
	t.check(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := t.n; i < 2*t.n; i++ {
		if t.x[i][w]&b != 0 {
			return 0, false
		}
	}
	c := t.Clone()
	out, _ := c.measure(q, func() int { return 0 })
	return out, true
}

func (t *RefTableau) measure(q int, draw func() int) (int, bool) {
	t.check(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	// Find a stabilizer anticommuting with Z_q.
	p := -1
	for i := t.n; i < 2*t.n; i++ {
		if t.x[i][w]&b != 0 {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome.
		for i := 0; i < 2*t.n; i++ {
			if i != p && t.x[i][w]&b != 0 {
				t.rowsum(i, p)
			}
		}
		// Destabilizer p-n becomes old stabilizer p; stabilizer p becomes Z_q.
		copy(t.x[p-t.n], t.x[p])
		copy(t.z[p-t.n], t.z[p])
		t.r[p-t.n] = t.r[p]
		for ww := 0; ww < t.words; ww++ {
			t.x[p][ww] = 0
			t.z[p][ww] = 0
		}
		outcome := draw()
		t.z[p][w] |= b
		t.r[p] = uint8(outcome)
		return outcome, false
	}
	// Deterministic outcome: accumulate into the scratch row.
	sc := 2 * t.n
	for ww := 0; ww < t.words; ww++ {
		t.x[sc][ww] = 0
		t.z[sc][ww] = 0
	}
	t.r[sc] = 0
	for i := 0; i < t.n; i++ {
		if t.x[i][w]&b != 0 {
			t.rowsum(sc, i+t.n)
		}
	}
	return int(t.r[sc]), true
}

// StabilizerString renders stabilizer row k (0..n-1) as a Pauli string.
func (t *RefTableau) StabilizerString(k int) string {
	row := t.n + k
	var sb strings.Builder
	if t.r[row] != 0 {
		sb.WriteByte('-')
	} else {
		sb.WriteByte('+')
	}
	for q := 0; q < t.n; q++ {
		x := t.getBit(t.x, row, q)
		z := t.getBit(t.z, row, q)
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

// Canonical returns the stabilizer group in a canonical (Gauss-reduced)
// form. Tableau.Canonical delegates here after layout conversion.
func (t *RefTableau) Canonical() []string {
	c := t.Clone()
	// Gaussian elimination over the stabilizer rows (rows n..2n-1) with
	// column order X_0..X_{n-1}, Z_0..Z_{n-1}.
	row := c.n
	for col := 0; col < 2*c.n && row < 2*c.n; col++ {
		q := col % c.n
		isX := col < c.n
		get := func(i int) uint64 {
			if isX {
				return c.getBit(c.x, i, q)
			}
			return c.getBit(c.z, i, q)
		}
		pivot := -1
		for i := row; i < 2*c.n; i++ {
			if get(i) == 1 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		c.swapRows(pivot, row)
		for i := c.n; i < 2*c.n; i++ {
			if i != row && get(i) == 1 {
				c.rowsum(i, row)
			}
		}
		row++
	}
	out := make([]string, c.n)
	for k := 0; k < c.n; k++ {
		out[k] = c.StabilizerString(k)
	}
	return out
}

func (t *RefTableau) swapRows(a, b int) {
	t.x[a], t.x[b] = t.x[b], t.x[a]
	t.z[a], t.z[b] = t.z[b], t.z[a]
	t.r[a], t.r[b] = t.r[b], t.r[a]
}

// toRef converts to the row-major reference layout. Canonicalization runs
// there so canonical forms stay byte-identical to the legacy output.
func (t *Tableau) toRef() *RefTableau {
	rt := NewRef(t.n)
	for i := range rt.x {
		clearWords(rt.x[i])
		clearWords(rt.z[i])
		rt.r[i] = 0
	}
	for q := 0; q < t.n; q++ {
		for i := 0; i < 2*t.n; i++ {
			rt.x[i][q/64] |= bitOf(t.x[q], i) << uint(q%64)
			rt.z[i][q/64] |= bitOf(t.z[q], i) << uint(q%64)
		}
	}
	for i := 0; i < 2*t.n; i++ {
		rt.r[i] = uint8(bitOf(t.r, i))
	}
	return rt
}

// Canonical returns the stabilizer group in a canonical (Gauss-reduced)
// form, so two tableaux describing the same state compare equal even if
// their generators differ. Signs are included.
func (t *Tableau) Canonical() []string { return t.toRef().Canonical() }

// Equal reports whether two tableaux describe the same stabilizer state.
func Equal(a, b *Tableau) bool {
	if a.n != b.n {
		return false
	}
	ca, cb := a.Canonical(), b.Canonical()
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}
