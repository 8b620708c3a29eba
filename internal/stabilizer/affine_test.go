package stabilizer

import (
	"math/rand"
	"testing"
)

// scripted is a rand.Source that plays back chosen draws: math/rand's
// Float64 is Int63 / 1<<63, so 0 reads as 0.0 (< 0.5, outcome 1) and 1<<62
// as 0.5 (outcome 0). It counts what was taken, and a draw past the end of
// the script fails the test through over.
type scripted struct {
	draws []int
	taken int
	over  bool
}

func (s *scripted) Int63() int64 {
	if s.taken >= len(s.draws) {
		s.over = true
		return 0
	}
	d := s.draws[s.taken]
	s.taken++
	if d == 1 {
		return 0
	}
	return 1 << 62
}

func (s *scripted) Seed(int64) {}

// symbolicOf plays ops through the symbolic pass and returns its map with
// the op list's measured qubits in order.
func symbolicOf(n int, ops []randOp) (*Affine, []int) {
	var measured []int
	for _, o := range ops {
		if o.measure() {
			measured = append(measured, o.q)
		}
	}
	sym := NewSymbolic(New(n), len(measured))
	for _, o := range ops {
		if o.measure() {
			sym.MeasureZ(o.q)
		} else {
			o.gate(sym.t)
		}
	}
	return sym.Affine(), measured
}

// concrete plays ops through a fresh tableau drawing from rng.
func concrete(n int, ops []randOp, rng *rand.Rand) []int {
	tb := New(n)
	var out []int
	for _, o := range ops {
		if o.measure() {
			out = append(out, tb.MeasureZ(o.q, rng))
		} else {
			o.gate(tb)
		}
	}
	return out
}

// checkAffine is the oracle both the property test and the fuzz target
// run: the map evaluated at chosen draws equals the tableau forced to the
// same draws, and sampling from a seeded RNG equals measuring with its
// twin — outcomes, number of draws, and where the stream stands after.
func checkAffine(t *testing.T, n int, ops []randOp, seed int64) {
	t.Helper()
	aff, measured := symbolicOf(n, ops)
	if len(aff.c) != len(measured) {
		t.Fatalf("map has %d outcomes for %d measurements", len(aff.c), len(measured))
	}
	got := make([]int, len(measured))

	pick := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 4; trial++ {
		draws := make([]int, aff.draws)
		for k := range draws {
			switch trial {
			case 0: // all zero: the constant term alone
			case 1:
				draws[k] = 1
			default:
				draws[k] = pick.Intn(2)
			}
		}
		symSrc, tabSrc := &scripted{draws: draws}, &scripted{draws: draws}
		aff.Sample(rand.New(symSrc), got)
		want := concrete(n, ops, rand.New(tabSrc))
		if symSrc.over || tabSrc.over || symSrc.taken != tabSrc.taken || tabSrc.taken != len(draws) {
			t.Fatalf("n=%d trial %d: sampler took %d draws (over %v), tableau %d (over %v), map says %d",
				n, trial, symSrc.taken, symSrc.over, tabSrc.taken, tabSrc.over, len(draws))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("n=%d trial %d draws %v: measurement %d (qubit %d) = %d, tableau %d\nops %v",
					n, trial, draws, j, measured[j], got[j], want[j], ops)
			}
		}
	}

	symRng, tabRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	aff.Sample(symRng, got)
	want := concrete(n, ops, tabRng)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("n=%d seed %d: measurement %d = %d, tableau %d", n, seed, j, got[j], want[j])
		}
	}
	if a, b := symRng.Int63(), tabRng.Int63(); a != b {
		t.Fatalf("n=%d seed %d: RNG streams stand apart after the shot (%d vs %d)", n, seed, a, b)
	}
}

// TestAffineMatchesTableau drives the generator the tableau-oracle tests
// use through the symbolic pass: several hundred seeded Clifford+measure
// circuits, qubit counts on both sides of the 64-row word boundary.
func TestAffineMatchesTableau(t *testing.T) {
	cases := 0
	for _, n := range []int{1, 2, 3, 5, 8, 16, 31, 32, 33, 40} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			ops := make([]randOp, 20+rng.Intn(100))
			for k := range ops {
				ops[k] = randomOp(rng, n)
			}
			checkAffine(t, n, ops, seed)
			cases++
		}
	}
	if cases < 300 {
		t.Fatalf("only %d cases ran", cases)
	}
}

// TestAffineGHZ is DESIGN.md's worked example: an n-qubit GHZ chain has
// one random measurement and every outcome equals it — c = 0, A = 1ⁿ.
func TestAffineGHZ(t *testing.T) {
	const n = 70
	ops := []randOp{{kind: 0, q: 0}}
	for q := 1; q < n; q++ {
		ops = append(ops, randOp{kind: 8, q: q - 1, p: q})
	}
	for q := 0; q < n; q++ {
		ops = append(ops, randOp{kind: 6, q: q})
	}
	aff, _ := symbolicOf(n, ops)
	if aff.draws != 1 || aff.words != 1 {
		t.Fatalf("GHZ map takes %d draws in %d words, want 1 in 1", aff.draws, aff.words)
	}
	for j := 0; j < n; j++ {
		if aff.c[j] != 0 || aff.rows[j] != 1 {
			t.Fatalf("measurement %d: c = %d, row = %b, want 0 and 1", j, aff.c[j], aff.rows[j])
		}
	}
	out := make([]int, n)
	for _, d := range []int{0, 1} {
		aff.Sample(rand.New(&scripted{draws: []int{d}}), out)
		for j, v := range out {
			if v != d {
				t.Fatalf("draw %d: qubit %d read %d", d, j, v)
			}
		}
	}
}

// TestAffineSampleAllocFree: a sample is draws and XORs, nothing else.
func TestAffineSampleAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := make([]randOp, 200)
	for k := range ops {
		ops[k] = randomOp(rng, 33)
	}
	aff, measured := symbolicOf(33, ops)
	out := make([]int, len(measured))
	if allocs := testing.AllocsPerRun(50, func() { aff.Sample(rng, out) }); allocs != 0 {
		t.Fatalf("Sample allocates %v times", allocs)
	}
}

// FuzzAffine reads an op list off the fuzzer's bytes — first byte the
// qubit count (1..40), then three bytes per op — and holds it to the same
// oracle as TestAffineMatchesTableau.
func FuzzAffine(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 8, 0, 1, 6, 0, 1, 6, 1, 0}, int64(1))
	f.Add([]byte{39, 0, 5, 0, 9, 5, 7, 6, 7, 0, 1, 7, 0, 6, 5, 0, 10, 5, 7, 7, 7, 0}, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) < 1 {
			return
		}
		n := int(data[0])%40 + 1
		var ops []randOp
		for body := data[1:]; len(body) >= 3 && len(ops) < 400; body = body[3:] {
			o := randOp{kind: int(body[0]) % 11, q: int(body[1]) % n, p: int(body[2]) % n}
			if o.kind >= 8 && o.p == o.q {
				if n == 1 {
					continue
				}
				o.p = (o.q + 1) % n
			}
			ops = append(ops, o)
		}
		checkAffine(t, n, ops, seed)
	})
}
