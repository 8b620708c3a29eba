package chip

import (
	"math/rand"
	"testing"

	"dhisq/internal/circuit"
)

func TestModelReset(t *testing.T) {
	m := model(NewStateVec(1, 1))
	m.SetTable(0, []TableEntry{
		{Role: RoleSingle, Kind: circuit.X, Qubit: 0},
		{Role: RoleMeasure, Kind: circuit.Measure, Qubit: 0},
	})
	m.Commit(0, PortXY, 1, 10)
	m.Commit(0, PortRO, 2, 10) // overlaps the X window on purpose
	if m.Gates != 1 || m.Measurements != 1 || m.Overlaps == 0 {
		t.Fatalf("setup: gates=%d meas=%d overlaps=%d", m.Gates, m.Measurements, m.Overlaps)
	}
	m.Reset(5)
	if m.Gates != 0 || m.Measurements != 0 || m.Overlaps != 0 || len(m.OverlapInfo) != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if m.Backend().(*StateVecBackend).State.Prob(0) > 0.001 {
		t.Fatal("Reset did not reset backend state")
	}
	// Tables survive a reset: the same program re-commits cleanly.
	m.Commit(0, PortXY, 1, 10)
	if m.Gates != 1 || len(m.Errs) != 0 {
		t.Fatalf("post-reset commit: gates=%d errs=%v", m.Gates, m.Errs)
	}
}

func TestStabilizerBackendRoundTrip(t *testing.T) {
	b := NewStabilizer(2, 3)
	b.Apply(circuit.H, 0, 0, 0)
	b.Apply(circuit.CNOT, 0, 0, 1)
	a := b.Apply(circuit.Measure, 0, 0, 0)
	if c := b.Apply(circuit.Measure, 0, 1, 0); c != a {
		t.Fatalf("GHZ pair disagreed: %d vs %d", a, c)
	}
	b.Apply(circuit.SWAP, 0, 0, 1)
	b.Apply(circuit.CZ, 0, 0, 1)
	b.Apply(circuit.Reset, 0, 0, 0)
	if out := b.Apply(circuit.Measure, 0, 0, 0); out != 0 {
		t.Fatalf("reset qubit measured %d", out)
	}
	b.Reset(4)
	if out := b.Apply(circuit.Measure, 0, 1, 0); out != 0 {
		t.Fatalf("fresh tableau measured %d", out)
	}
}

func TestSeededBackendReset(t *testing.T) {
	b := NewSeeded(11)
	// Gates, resets and EPR generations are no-ops that draw nothing: that
	// is what keeps Fig. 15's BISP and lock-step runs on identical branches.
	b.Apply(circuit.H, 0, 0, 0)
	b.Apply(circuit.CNOT, 0, 0, 1)
	b.Apply(circuit.Reset, 0, 0, 0)
	b.Apply(circuit.EPR, 0, 0, 3)
	measure := func(q int) int { return b.Apply(circuit.Measure, 0, q, 0) }
	first := []int{measure(0), measure(0), measure(3)}
	b.Reset(11)
	second := []int{measure(0), measure(0), measure(3)}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("outcome %d not reproducible after Reset: %v vs %v", i, first, second)
		}
	}
	b.Reset(12)
	diff := false
	for q := 0; q < 64 && !diff; q++ {
		b2 := NewSeeded(11)
		if measure(q) != b2.Apply(circuit.Measure, 0, q, 0) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical outcome streams")
	}
}

func TestStateVecBackendReset(t *testing.T) {
	b := NewStateVec(2, 1)
	b.Apply(circuit.RX, 1.1, 0, 0)
	b.Apply(circuit.CPhase, 0.7, 0, 1)
	b.Apply(circuit.SWAP, 0, 0, 1)
	b.Reset(2)
	if b.State.Prob(0) > 1e-12 || b.State.Prob(1) > 1e-12 {
		t.Fatal("Reset did not restore |00>")
	}
}

// TestBackendResetReseedsInPlace pins the per-shot Reset: no allocation,
// and behind a comm boundary both RNG streams equal to those of a freshly
// built backend. Without a boundary the herald stream can never be drawn
// from, and Reset leaves it where it stood instead of paying its seeding.
func TestBackendResetReseedsInPlace(t *testing.T) {
	sv, st := NewStateVec(3, 1), NewStabilizer(3, 1)
	for name, b := range map[string]struct {
		Backend
		CommAware
		rng, hrng *rand.Rand
	}{
		"statevec":   {sv, sv, sv.Rng, sv.hrng},
		"stabilizer": {st, st, st.Rng, st.hrng},
	} {
		b.hrng.Seed(77)
		b.Reset(9)
		if unseeded := rand.New(rand.NewSource(77)); b.hrng.Int63() != unseeded.Int63() {
			t.Errorf("%s: Reset reseeded a herald stream no qubit can draw from", name)
		}
		b.SetCommFrom(2)
		b.rng.Int63() // advance both streams so that a reseed is observable
		b.hrng.Int63()
		if allocs := testing.AllocsPerRun(20, func() { b.Reset(9) }); allocs != 0 {
			t.Errorf("%s: Reset(seed) allocates %v times", name, allocs)
		}
		fresh, hfresh := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9^heraldSeedMix))
		for i := 0; i < 1000; i++ {
			if b.rng.Int63() != fresh.Int63() || b.hrng.Float64() != hfresh.Float64() {
				t.Fatalf("%s: reseeded stream diverged from fresh construction at draw %d", name, i)
			}
		}
	}
}
