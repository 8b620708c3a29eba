package stabilizer

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// The one-row parity rule and the fused collapse, against RefTableau.
// parityOutcome returns the selected row's sign when it selects at most
// one; these tests force every selection size through it — one and several
// on entangled states, none on a column cleared by hand (no valid tableau
// has an empty selection: Z_q is not the empty product) — and walk the
// sequences a feed-forward program makes of it: measure after measure,
// reset after measure.

// selected counts the stabilizer rows parityOutcome(q) multiplies.
func selected(tb *Tableau, q int) int {
	n := 0
	for w, v := range tb.x[q] {
		n += bits.OnesCount64(v & tb.maskDest[w])
	}
	return n
}

// probe compares a deterministic read of q and returns its selection size,
// or -1 when q is not deterministic.
func probe(t *testing.T, tb *Tableau, ref *RefTableau, q int, ctx string) int {
	t.Helper()
	got, gotDet := tb.MeasureDeterministic(q)
	want, wantDet := ref.MeasureDeterministic(q)
	if gotDet != wantDet || got != want {
		t.Fatalf("%s: MeasureDeterministic(%d) = (%d,%v), ref (%d,%v), %d rows selected",
			ctx, q, got, gotDet, want, wantDet, selected(tb, q))
	}
	if !gotDet {
		return -1
	}
	return selected(tb, q)
}

func TestParityOutcomeSelectionSizes(t *testing.T) {
	var seen [3]int // selections of 0, 1, 2-or-more rows
	count := func(size int) {
		if size >= 0 {
			seen[min(size, 2)]++
		}
	}
	for _, n := range []int{1, 2, 5, 31, 32, 33, 64, 65, 100} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tbRng := rand.New(rand.NewSource(seed * 29))
			refRng := rand.New(rand.NewSource(seed * 29))
			tb, ref := New(n), NewRef(n)
			for k := 0; k < 3*n+20; k++ {
				stepRandom(t, rng, tbRng, refRng, tb, ref, n)
			}
			ctx := fmt.Sprintf("n=%d seed=%d", n, seed)
			for q := 0; q < n; q++ {
				count(probe(t, tb, ref, q, ctx))
			}
			for trial := 0; trial < 8; trial++ {
				q := rng.Intn(n)
				first := tb.MeasureZ(q, tbRng)
				if want := ref.MeasureZ(q, refRng); first != want {
					t.Fatalf("%s: MeasureZ(%d) = %d, ref %d", ctx, q, first, want)
				}
				rowsEqual(t, tb, ref, ctx+" after a measurement")
				// Measure after measure: deterministic now, same outcome, no
				// draw, no row changed.
				size := probe(t, tb, ref, q, ctx+" re-measured")
				if size < 0 {
					t.Fatalf("%s: qubit %d is not deterministic right after its measurement", ctx, q)
				}
				count(size)
				if again := tb.MeasureZ(q, nil); again != first {
					t.Fatalf("%s: qubit %d read %d, then %d", ctx, q, first, again)
				}
				ref.MeasureZ(q, nil)
				rowsEqual(t, tb, ref, ctx+" after a re-measurement")
				// Reset after measure, as the chip's stabilizer backend does it.
				if first == 1 {
					tb.X(q)
					ref.X(q)
				}
				if size := probe(t, tb, ref, q, ctx+" reset"); size < 0 || tb.MeasureZ(q, nil) != 0 {
					t.Fatalf("%s: qubit %d does not read 0 after its reset", ctx, q)
				}
				// Its neighbours' reads moved with the collapse.
				for _, p := range []int{(q + 1) % n, (q + n - 1) % n} {
					count(probe(t, tb, ref, p, ctx+" beside a reset"))
				}
			}
			// No row selected: clear qubit 0's X column in both layouts.
			clearWords(tb.x[0])
			for i := range ref.x {
				ref.x[i][0] &^= 1
			}
			if size := probe(t, tb, ref, 0, ctx+" with an empty selection"); size != 0 {
				t.Fatalf("%s: cleared column selects %d rows", ctx, size)
			}
			count(0)
		}
	}
	t.Logf("selections of 0, 1, 2+ rows: %v", seen)
	for size, n := range seen {
		if n < 50 {
			t.Fatalf("only %d reads selected %d rows (2 = two or more): the generator no longer forces that path", n, size)
		}
	}
}
