package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernel-oracle property tests: randomized circuits over every gate
// kind × qubit count × seed, executed through both the rewritten kernels
// and the retained reference kernels, must produce identical amplitudes
// and identical measurement outcomes. "Identical" is float equality
// (==): the rewritten kernels perform the same per-amplitude arithmetic
// in the same order, so nothing weaker would hide a real divergence.
// Only explicit fusion (Fuse/ApplyMat1 chains) reassociates arithmetic
// and is compared with an epsilon.

// refOp mirrors one State operation onto a shadow state via the Ref
// kernels.
type refOp func(s *State, ref *State, sRng, refRng *rand.Rand)

// randOp draws a random gate application over n qubits.
func randOp(rng *rand.Rand, n int) refOp {
	op, _ := randGate(rng, n)
	return op
}

// randGate is randOp that also reports the qubits the gate names.
func randGate(rng *rand.Rand, n int) (refOp, []int) {
	q := rng.Intn(n)
	p := q
	if n > 1 {
		for p == q {
			p = rng.Intn(n)
		}
	}
	theta := (rng.Float64() - 0.5) * 4 * math.Pi
	kinds := 16
	if n == 1 { // two-qubit cases (12..15) need a distinct partner
		kinds = 12
	}
	kind := rng.Intn(kinds)
	if kind < 12 {
		return gateOp(kind, q, p, theta), []int{q}
	}
	return gateOp(kind, q, p, theta), []int{q, p}
}

// gateOp is gate kind (0..15) on q, or on the pair (q, p) from 12 up.
func gateOp(kind, q, p int, theta float64) refOp {
	switch kind {
	case 0:
		return func(s, ref *State, _, _ *rand.Rand) {
			s.H(q)
			RefApply1(ref, q, invSqrt2, invSqrt2, invSqrt2, -invSqrt2)
		}
	case 1:
		return func(s, ref *State, _, _ *rand.Rand) { s.X(q); RefApply1(ref, q, 0, 1, 1, 0) }
	case 2:
		return func(s, ref *State, _, _ *rand.Rand) { s.Y(q); RefApply1(ref, q, 0, -1i, 1i, 0) }
	case 3:
		return func(s, ref *State, _, _ *rand.Rand) { s.Z(q); RefApply1(ref, q, 1, 0, 0, -1) }
	case 4:
		return func(s, ref *State, _, _ *rand.Rand) { s.S(q); RefApply1(ref, q, 1, 0, 0, 1i) }
	case 5:
		return func(s, ref *State, _, _ *rand.Rand) { s.Sdg(q); RefApply1(ref, q, 1, 0, 0, -1i) }
	case 6:
		return func(s, ref *State, _, _ *rand.Rand) { s.T(q); RefApply1(ref, q, MatT.A, MatT.B, MatT.C, MatT.D) }
	case 7:
		return func(s, ref *State, _, _ *rand.Rand) {
			s.Tdg(q)
			RefApply1(ref, q, MatTdg.A, MatTdg.B, MatTdg.C, MatTdg.D)
		}
	case 8:
		return func(s, ref *State, _, _ *rand.Rand) {
			s.RX(q, theta)
			m := MatRX(theta)
			RefApply1(ref, q, m.A, m.B, m.C, m.D)
		}
	case 9:
		return func(s, ref *State, _, _ *rand.Rand) {
			s.RY(q, theta)
			m := MatRY(theta)
			RefApply1(ref, q, m.A, m.B, m.C, m.D)
		}
	case 10:
		return func(s, ref *State, _, _ *rand.Rand) {
			s.RZ(q, theta)
			m := MatRZ(theta)
			RefApply1(ref, q, m.A, m.B, m.C, m.D)
		}
	case 11:
		return func(s, ref *State, _, _ *rand.Rand) {
			s.Phase(q, theta)
			m := MatPhase(theta)
			RefApply1(ref, q, m.A, m.B, m.C, m.D)
		}
	case 12:
		return func(s, ref *State, _, _ *rand.Rand) { s.CNOT(q, p); RefCNOT(ref, q, p) }
	case 13:
		return func(s, ref *State, _, _ *rand.Rand) { s.CZ(q, p); RefCZ(ref, q, p) }
	case 14:
		return func(s, ref *State, _, _ *rand.Rand) { s.CPhase(q, p, theta); RefCPhase(ref, q, p, theta) }
	default:
		return func(s, ref *State, _, _ *rand.Rand) { s.SWAP(q, p); RefSWAP(ref, q, p) }
	}
}

// sameAmps requires exact (==) agreement of the full 2^n vectors.
func sameAmps(t *testing.T, s, ref *State, ctx string) {
	t.Helper()
	got, want := s.dense(), ref.dense()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: amplitude %d diverged: new %v vs ref %v", ctx, i, got[i], want[i])
		}
	}
}

func runRandomCircuit(t *testing.T, n, ops int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, ref := NewState(n), NewState(n)
	sRng := rand.New(rand.NewSource(seed * 7))
	refRng := rand.New(rand.NewSource(seed * 7))
	for k := 0; k < ops; k++ {
		randOp(rng, n)(s, ref, sRng, refRng)
		// Interleave measurements sparsely so collapse paths are hit
		// mid-circuit, with both sides drawing from twinned rngs.
		if rng.Intn(11) == 0 {
			q := rng.Intn(n)
			got := s.Measure(q, sRng)
			want := RefMeasure(ref, q, refRng)
			if got != want {
				t.Fatalf("n=%d seed=%d op %d: Measure(%d) = %d, ref %d", n, seed, k, q, got, want)
			}
		}
	}
	sameAmps(t, s, ref, fmt.Sprintf("n=%d seed=%d", n, seed))
	for q := 0; q < n; q++ {
		if got, want := s.Prob(q), RefProb(ref, q); got != want {
			t.Fatalf("n=%d seed=%d: Prob(%d) = %v, ref %v", n, seed, q, got, want)
		}
	}
}

// TestKernelOracleRandomCircuits is the main equivalence property: all
// gate kinds × qubit counts × seeds, serial paths.
func TestKernelOracleRandomCircuits(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 10} {
		for seed := int64(1); seed <= 6; seed++ {
			runRandomCircuit(t, n, 120, seed)
		}
	}
}

// TestKernelOracleParallelForced reruns the property with the parallel
// apply path forced on (threshold 1, several workers), so -race sweeps
// the goroutine fan-out and the result stays bit-identical to serial.
func TestKernelOracleParallelForced(t *testing.T) {
	defer setParallel(1, 4)()
	for _, n := range []int{2, 5, 8, 10} {
		for seed := int64(1); seed <= 4; seed++ {
			runRandomCircuit(t, n, 100, seed+100)
		}
	}
}

// TestParallelMatchesSerial applies the same gate sequence once serially
// and once with the parallel path forced, requiring exact agreement.
func TestParallelMatchesSerial(t *testing.T) {
	build := func() *State {
		s := NewState(9)
		rng := rand.New(rand.NewSource(42))
		mRng := rand.New(rand.NewSource(43))
		for k := 0; k < 200; k++ {
			randOp(rng, 9)(s, s.Clone(), mRng, mRng) // shadow discarded; drives s only
		}
		return s
	}
	serial := build()
	restore := setParallel(1, 8)
	parallel := build()
	restore()
	sameAmps(t, parallel, serial, "parallel vs serial")
}

// TestProjectMatchesReference covers the public Project fast path.
func TestProjectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, ref := NewState(6), NewState(6)
		for k := 0; k < 40; k++ {
			randOp(rng, 6)(s, ref, nil, nil)
		}
		q := rng.Intn(6)
		p1 := s.Prob(q)
		outcome := 0
		if p1 > 0.5 {
			outcome = 1
		}
		s.Project(q, outcome)
		RefProject(ref, q, outcome)
		sameAmps(t, s, ref, fmt.Sprintf("project seed=%d", seed))
	}
}

// TestFusedChainMatchesSequential checks gate fusion against sequential
// application to rounding error (fusion reassociates arithmetic, so
// exact equality is not expected).
func TestFusedChainMatchesSequential(t *testing.T) {
	chains := [][]Mat2{
		{MatH, MatT, MatH, MatS},
		{MatX, MatH, MatZ, MatTdg, MatH},
		{MatRX(0.3), MatRY(1.1), MatRZ(-0.7), MatPhase(2.2)},
		{MatH, MatH}, // composes to identity up to rounding
	}
	for ci, chain := range chains {
		seq, fused := NewState(5), NewState(5)
		rng := rand.New(rand.NewSource(int64(ci + 1)))
		for k := 0; k < 30; k++ {
			op := randOp(rng, 5)
			op(seq, fused, nil, nil) // note: applies new kernels to seq, ref kernels to fused
		}
		q := ci % 5
		for _, m := range chain {
			seq.ApplyMat1(q, m)
		}
		fused.ApplyMat1(q, Fuse(chain...))
		for i, a := range seq.dense() {
			if d := cabs(a - fused.Amplitude(i)); d > 1e-12 {
				t.Fatalf("chain %d: amplitude %d off by %g", ci, i, d)
			}
		}
	}
}

func cabs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// TestSwapMatchesThreeCNOT pins the one-pass SWAP to the legacy
// decomposition exactly (both are permutations).
func TestSwapMatchesThreeCNOT(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, ref := NewState(7), NewState(7)
		for k := 0; k < 60; k++ {
			randOp(rng, 7)(s, ref, nil, nil)
		}
		for trial := 0; trial < 10; trial++ {
			a, b := rng.Intn(7), rng.Intn(7)
			if a == b {
				continue
			}
			s.SWAP(a, b)
			RefSWAP(ref, a, b)
		}
		sameAmps(t, s, ref, fmt.Sprintf("swap seed=%d", seed))
	}
}
