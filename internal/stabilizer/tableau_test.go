package stabilizer

import (
	"math"
	"math/rand"
	"testing"

	"dhisq/internal/quantum"
)

func TestInitialState(t *testing.T) {
	tb := New(3)
	for q := 0; q < 3; q++ {
		out, det := tb.MeasureDeterministic(q)
		if !det || out != 0 {
			t.Fatalf("qubit %d of |000>: out=%d det=%v", q, out, det)
		}
	}
}

func TestXFlips(t *testing.T) {
	tb := New(2)
	tb.X(0)
	if out := tb.MeasureZ(0, rand.New(rand.NewSource(1))); out != 1 {
		t.Fatalf("X|0> measured %d", out)
	}
	if out := tb.MeasureZ(1, rand.New(rand.NewSource(1))); out != 0 {
		t.Fatalf("untouched qubit measured %d", out)
	}
}

func TestHHIsIdentity(t *testing.T) {
	tb := New(1)
	tb.H(0)
	tb.H(0)
	out, det := tb.MeasureDeterministic(0)
	if !det || out != 0 {
		t.Fatalf("HH|0>: out=%d det=%v", out, det)
	}
}

func TestBellCorrelations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ones := 0
	for trial := 0; trial < 200; trial++ {
		tb := New(2)
		tb.H(0)
		tb.CNOT(0, 1)
		m0 := tb.MeasureZ(0, rng)
		// After measuring qubit 0, qubit 1 is deterministic and equal.
		m1, det := tb.MeasureDeterministic(1)
		if !det {
			t.Fatal("bell partner not deterministic after first measurement")
		}
		if m0 != m1 {
			t.Fatalf("bell correlation broken: %d vs %d", m0, m1)
		}
		ones += m0
	}
	if ones < 60 || ones > 140 {
		t.Fatalf("outcome bias: %d/200 ones", ones)
	}
}

func TestSGate(t *testing.T) {
	// S|+> = |+i>; measuring X-basis via H gives 50/50, but S²|+> = Z|+> = |->
	tb := New(1)
	tb.H(0)
	tb.S(0)
	tb.S(0)
	tb.H(0) // H Z H |0> = X|0> = |1>
	out, det := tb.MeasureDeterministic(0)
	if !det || out != 1 {
		t.Fatalf("HSSH|0>: out=%d det=%v", out, det)
	}
}

func TestSdg(t *testing.T) {
	tb := New(1)
	tb.H(0)
	tb.S(0)
	tb.Sdg(0)
	tb.H(0)
	out, det := tb.MeasureDeterministic(0)
	if !det || out != 0 {
		t.Fatalf("H S Sdg H |0>: out=%d det=%v", out, det)
	}
}

func TestYGate(t *testing.T) {
	tb := New(1)
	tb.Y(0)
	out, det := tb.MeasureDeterministic(0)
	if !det || out != 1 {
		t.Fatalf("Y|0>: out=%d det=%v", out, det)
	}
}

func TestCZViaStabilizers(t *testing.T) {
	// CZ on |++> produces the graph state with stabilizers X⊗Z and Z⊗X.
	tb := New(2)
	tb.H(0)
	tb.H(1)
	tb.CZ(0, 1)
	can := tb.Canonical()
	want := map[string]bool{"+XZ": true, "+ZX": true}
	for _, s := range can {
		if !want[s] {
			t.Fatalf("unexpected canonical stabilizers %v", can)
		}
	}
}

func TestSwapMovesState(t *testing.T) {
	tb := New(3)
	tb.X(0)
	tb.SWAP(0, 2)
	if out, _ := tb.MeasureDeterministic(0); out != 0 {
		t.Fatal("swap: qubit 0 still excited")
	}
	if out, _ := tb.MeasureDeterministic(2); out != 1 {
		t.Fatal("swap: qubit 2 not excited")
	}
}

func TestGHZParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 64 // crosses the word boundary
	for trial := 0; trial < 30; trial++ {
		tb := New(n)
		tb.H(0)
		for q := 0; q < n-1; q++ {
			tb.CNOT(q, q+1)
		}
		first := tb.MeasureZ(0, rng)
		for q := 1; q < n; q++ {
			out, det := tb.MeasureDeterministic(q)
			if !det || out != first {
				t.Fatalf("GHZ qubit %d: out=%d det=%v first=%d", q, out, det, first)
			}
		}
	}
}

func TestCanonicalEquality(t *testing.T) {
	// Different generator presentations of the same state compare equal.
	a := New(2)
	a.H(0)
	a.CNOT(0, 1)

	b := New(2)
	b.H(1)
	b.CNOT(1, 0)
	if !Equal(a, b) {
		t.Fatal("bell states built two ways should be equal")
	}

	c := New(2)
	c.H(0)
	if Equal(a, c) {
		t.Fatal("different states compare equal")
	}
}

// TestAgainstStateVector cross-checks random Clifford+measurement circuits
// against the dense simulator: identical gate streams and forced outcomes
// must produce identical deterministic-outcome patterns and probabilities.
func TestAgainstStateVector(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 5
	for trial := 0; trial < 60; trial++ {
		tb := New(n)
		sv := quantum.NewState(n)
		for g := 0; g < 60; g++ {
			q := rng.Intn(n)
			p := (q + 1 + rng.Intn(n-1)) % n
			switch rng.Intn(6) {
			case 0:
				tb.H(q)
				sv.H(q)
			case 1:
				tb.S(q)
				sv.S(q)
			case 2:
				tb.X(q)
				sv.X(q)
			case 3:
				tb.Z(q)
				sv.Z(q)
			case 4:
				tb.CNOT(q, p)
				sv.CNOT(q, p)
			case 5:
				tb.CZ(q, p)
				sv.CZ(q, p)
			}
		}
		for q := 0; q < n; q++ {
			out, det := tb.MeasureDeterministic(q)
			pv := sv.Prob(q)
			if det {
				if math.Abs(pv-float64(out)) > 1e-9 {
					t.Fatalf("trial %d qubit %d: tableau says deterministic %d, statevec prob %g", trial, q, out, pv)
				}
			} else {
				if math.Abs(pv-0.5) > 1e-9 {
					t.Fatalf("trial %d qubit %d: tableau says random, statevec prob %g", trial, q, pv)
				}
			}
		}
		// Collapse one qubit in both and re-verify correlation survives.
		q := rng.Intn(n)
		m := tb.MeasureZ(q, rng)
		sv.Project(q, m)
		for p := 0; p < n; p++ {
			out, det := tb.MeasureDeterministic(p)
			pv := sv.Prob(p)
			if det && math.Abs(pv-float64(out)) > 1e-9 {
				t.Fatalf("post-collapse qubit %d: tableau %d, statevec %g", p, out, pv)
			}
		}
	}
}

func TestLargeTableauSmoke(t *testing.T) {
	// The paper's biggest benchmark is adder_n1153.
	const n = 1153
	tb := New(n)
	rng := rand.New(rand.NewSource(2))
	tb.H(0)
	for q := 0; q < n-1; q++ {
		tb.CNOT(q, q+1)
	}
	first := tb.MeasureZ(0, rng)
	last, det := tb.MeasureDeterministic(n - 1)
	if !det || last != first {
		t.Fatalf("giant GHZ broken: first=%d last=%d det=%v", first, last, det)
	}
}

// BenchmarkMeasureZ times the random-outcome measurement, collapse and
// all: H(q); MeasureZ(q) round-robin over a 50-qubit register of Bell
// pairs, so every measurement is random.
func BenchmarkMeasureZ(b *testing.B) {
	const n = 50
	tb := New(n)
	for q := 0; q < n; q += 2 {
		tb.H(q)
		tb.CNOT(q, q+1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; b.Loop(); i++ {
		q := i % n
		tb.H(q)
		tb.MeasureZ(q, rng)
	}
}
