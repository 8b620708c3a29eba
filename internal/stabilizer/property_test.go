package stabilizer

import (
	"fmt"
	"math/rand"
	"testing"
)

// The tableau-oracle property tests: random Clifford+measurement circuits
// over every gate kind × qubit count × seed, executed through both the
// column-major rewrite and the retained row-major reference, must leave
// bit-identical rows (destabilizers, stabilizers, signs), identical
// measurement outcomes from twinned rngs, and identical canonical forms.

// rowsEqual converts the column-major tableau to the reference layout and
// requires exact row/sign agreement (scratch row excluded).
func rowsEqual(t *testing.T, tb *Tableau, ref *RefTableau, ctx string) {
	t.Helper()
	conv := tb.toRef()
	for i := 0; i < 2*ref.n; i++ {
		for w := 0; w < ref.words; w++ {
			if conv.x[i][w] != ref.x[i][w] || conv.z[i][w] != ref.z[i][w] {
				t.Fatalf("%s: row %d word %d diverged: x %x/%x z %x/%x",
					ctx, i, w, conv.x[i][w], ref.x[i][w], conv.z[i][w], ref.z[i][w])
			}
		}
		if conv.r[i] != ref.r[i] {
			t.Fatalf("%s: sign of row %d diverged: %d vs %d", ctx, i, conv.r[i], ref.r[i])
		}
	}
}

// randOp is one step of the seeded Clifford+measure generator every
// property test in this package draws from.
type randOp struct {
	kind, q, p int // kind 6 and 7 are measurements; p is the partner of kinds 8..10
}

func (o randOp) measure() bool { return o.kind == 6 || o.kind == 7 }

func (o randOp) String() string {
	names := [...]string{"H", "S", "Sdg", "X", "Y", "Z", "M", "M", "CNOT", "CZ", "SWAP"}
	if o.kind >= 8 {
		return fmt.Sprintf("%s %d %d", names[o.kind], o.q, o.p)
	}
	return fmt.Sprintf("%s %d", names[o.kind], o.q)
}

// randomOp draws the next op over n qubits.
func randomOp(rng *rand.Rand, n int) randOp {
	q := rng.Intn(n)
	p := q
	if n > 1 {
		for p == q {
			p = rng.Intn(n)
		}
	}
	kinds := 11
	if n == 1 { // two-qubit cases (8..10) need a distinct partner
		kinds = 8
	}
	return randOp{kind: rng.Intn(kinds), q: q, p: p}
}

// cliffordGates is the gate set Tableau and RefTableau share.
type cliffordGates interface {
	H(int)
	S(int)
	Sdg(int)
	X(int)
	Y(int)
	Z(int)
	CNOT(int, int)
	CZ(int, int)
	SWAP(int, int)
}

// gate applies a non-measurement op.
func (o randOp) gate(t cliffordGates) {
	switch o.kind {
	case 0:
		t.H(o.q)
	case 1:
		t.S(o.q)
	case 2:
		t.Sdg(o.q)
	case 3:
		t.X(o.q)
	case 4:
		t.Y(o.q)
	case 5:
		t.Z(o.q)
	case 8:
		t.CNOT(o.q, o.p)
	case 9:
		t.CZ(o.q, o.p)
	case 10:
		t.SWAP(o.q, o.p)
	default:
		panic("gate on a measurement op")
	}
}

// stepRandom applies one random op to both tableaux and cross-checks
// outcomes. Returns a context string describing the op for failures.
func stepRandom(t *testing.T, rng, tbRng, refRng *rand.Rand, tb *Tableau, ref *RefTableau, n int) string {
	t.Helper()
	o := randomOp(rng, n)
	if !o.measure() {
		o.gate(tb)
		o.gate(ref)
		return o.String()
	}
	got := tb.MeasureZ(o.q, tbRng)
	want := ref.MeasureZ(o.q, refRng)
	if got != want {
		t.Fatalf("MeasureZ(%d) = %d, ref %d", o.q, got, want)
	}
	return o.String()
}

// TestTableauOracleRandomCircuits is the main equivalence property. Qubit
// counts straddle the 64-row word boundary (2n = 64 at n = 32).
func TestTableauOracleRandomCircuits(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 31, 32, 33, 64, 65, 100} {
		ops := 150
		if n > 40 {
			ops = 80
		}
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tbRng := rand.New(rand.NewSource(seed * 13))
			refRng := rand.New(rand.NewSource(seed * 13))
			tb, ref := New(n), NewRef(n)
			var last string
			for k := 0; k < ops; k++ {
				last = stepRandom(t, rng, tbRng, refRng, tb, ref, n)
				// Row-exact check every few ops keeps runtime sane at n=100.
				if k%9 == 0 {
					rowsEqual(t, tb, ref, fmt.Sprintf("n=%d seed=%d op %d (%s)", n, seed, k, last))
				}
			}
			rowsEqual(t, tb, ref, fmt.Sprintf("n=%d seed=%d final (%s)", n, seed, last))
			for q := 0; q < n; q++ {
				gotO, gotD := tb.MeasureDeterministic(q)
				wantO, wantD := ref.MeasureDeterministic(q)
				if gotD != wantD || (gotD && gotO != wantO) {
					t.Fatalf("n=%d seed=%d: MeasureDeterministic(%d) = (%d,%v), ref (%d,%v)",
						n, seed, q, gotO, gotD, wantO, wantD)
				}
			}
		}
	}
}

// TestCanonicalMatchesReference pins canonical forms (and hence Equal) to
// the legacy byte output.
func TestCanonicalMatchesReference(t *testing.T) {
	for _, n := range []int{2, 5, 33, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		tbRng := rand.New(rand.NewSource(int64(n) * 3))
		refRng := rand.New(rand.NewSource(int64(n) * 3))
		tb, ref := New(n), NewRef(n)
		for k := 0; k < 120; k++ {
			stepRandom(t, rng, tbRng, refRng, tb, ref, n)
		}
		can, refCan := tb.Canonical(), ref.Canonical()
		for i := range can {
			if can[i] != refCan[i] {
				t.Fatalf("n=%d: canonical row %d: %q vs ref %q", n, i, can[i], refCan[i])
			}
		}
	}
}

// TestMeasureDeterministicReadOnly guards the allocation-free rewrite: the
// probe must not change any row.
func TestMeasureDeterministicReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mRng := rand.New(rand.NewSource(8))
	tb := New(40)
	for k := 0; k < 200; k++ {
		q := rng.Intn(40)
		switch rng.Intn(5) {
		case 0:
			tb.H(q)
		case 1:
			tb.S(q)
		case 2:
			tb.CNOT(q, (q+1)%40)
		case 3:
			tb.CZ(q, (q+3)%40)
		case 4:
			tb.MeasureZ(q, mRng)
		}
		before := tb.Clone()
		tb.MeasureDeterministic(rng.Intn(40))
		rowsEqual(t, tb, before.toRef(), fmt.Sprintf("probe after op %d", k))
	}
}

// TestMeasureDeterministicAllocFree asserts the probe performs zero heap
// allocations (the legacy path cloned the full tableau per call).
func TestMeasureDeterministicAllocFree(t *testing.T) {
	tb := New(257)
	rng := rand.New(rand.NewSource(3))
	tb.H(0)
	for q := 0; q < 256; q++ {
		tb.CNOT(q, q+1)
	}
	tb.MeasureZ(0, rng)
	allocs := testing.AllocsPerRun(100, func() {
		tb.MeasureDeterministic(200)
	})
	if allocs != 0 {
		t.Fatalf("MeasureDeterministic allocates %.1f times per call", allocs)
	}
}

// TestSwapPointerExchange pins the O(1) SWAP to the legacy three-CNOT rows.
func TestSwapPointerExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbRng := rand.New(rand.NewSource(18))
	refRng := rand.New(rand.NewSource(18))
	tb, ref := New(70), NewRef(70)
	for k := 0; k < 100; k++ {
		stepRandom(t, rng, tbRng, refRng, tb, ref, 70)
	}
	for trial := 0; trial < 30; trial++ {
		a, b := rng.Intn(70), rng.Intn(70)
		if a == b {
			continue
		}
		tb.SWAP(a, b)
		ref.SWAP(a, b)
	}
	rowsEqual(t, tb, ref, "swap battery")
}
