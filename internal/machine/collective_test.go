package machine

import (
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
)

// feedForwardCircuit builds a 9-qubit dynamic circuit that exercises every
// collective lowering shape: single-bit fetches (repeated, so the
// broadcast tree grows past the owner), multi-bit parity gathers spanning
// several owners (the XOR relay chain), and plain local conditions.
func feedForwardCircuit() *circuit.Circuit {
	c := circuit.New(9)
	for q := 0; q < 6; q++ {
		c.H(q)
	}
	for q := 0; q < 6; q++ {
		c.MeasureInto(q, q)
	}
	// Single remote bit, consumed twice by different far-away actors: the
	// second consumer should find a nearer holder than the owner.
	c.CondGate(circuit.X, circuit.Condition{Bits: []int{0}, Parity: 1}, 8)
	c.CondGate(circuit.Z, circuit.Condition{Bits: []int{0}, Parity: 1}, 7)
	// Multi-owner parity gathers: relay chains of length 4 and 2.
	c.CondGate(circuit.X, circuit.Condition{Bits: []int{0, 1, 2, 3}, Parity: 1}, 6)
	c.CondGate(circuit.X, circuit.Condition{Bits: []int{2, 4}, Parity: 0}, 8)
	// Mixed local + remote: actor 5 owns bit 5.
	c.CondGate(circuit.Z, circuit.Condition{Bits: []int{5, 1}, Parity: 1}, 5)
	for q := 6; q < 9; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// runCollective is runFull with Config.Collective set.
func runCollective(t *testing.T, c *circuit.Circuit, meshW, meshH int, collective string, backend BackendKind, seed int64) []int {
	t.Helper()
	cfg := DefaultConfig(c.NumQubits)
	cfg.Backend = backend
	cfg.Seed = seed
	cfg.Collective = collective
	m, err := NewForCircuit(c, meshW, meshH, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(c, nil, m.Cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(cp); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.Violations != 0 || res.Misalignments != 0 || res.Overlaps != 0 {
		t.Fatalf("collective run unhealthy: %+v", res)
	}
	bits, err := m.ReadBits()
	if err != nil {
		t.Fatal(err)
	}
	return bits
}

// TestCollectiveLoweringEquivalence pins the semantic contract of
// Options.Collective on the state vector: for this circuit and seed, the
// collective-aware lowering produces exactly the bits the legacy star
// distribution produces — the relay chains and nearest-holder fetches
// move the same values, just over fewer and shorter paths. (Under
// BackendSeeded both equal the sequential run: internal/service's
// TestKnobInvariants, clause 1.)
func TestCollectiveLoweringEquivalence(t *testing.T) {
	c := feedForwardCircuit()
	for seed := int64(1); seed <= 5; seed++ {
		_, _, legacy := runFull(t, c, 3, 3, nil, BackendStateVec, seed)
		coll := runCollective(t, c, 3, 3, "auto", BackendStateVec, seed)
		for b := range legacy {
			if legacy[b] != coll[b] {
				t.Fatalf("seed %d: bit %d: legacy %d, collective %d", seed, b, legacy[b], coll[b])
			}
		}
	}
}

// TestCollectiveLongRangeCNOT re-runs the Fig. 14 dual-rail flow with the
// collective lowering under every schedule name: the target must still
// flip.
func TestCollectiveLongRangeCNOT(t *testing.T) {
	logical := circuit.New(4)
	logical.X(0)
	logical.CNOT(0, 3)
	logical.MeasureInto(0, 0)
	logical.MeasureInto(3, 1)
	phys, err := circuit.DualRailEmbedding{}.Embed(logical)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range network.CollScheduleNames() {
		bits := runCollective(t, phys, 4, 2, sched, BackendStateVec, 3)
		if bits[0] != 1 || bits[1] != 1 {
			t.Fatalf("schedule %s: long-range CNOT wrong: %v", sched, bits[:2])
		}
	}
}

// TestCollectiveFingerprint pins the cache-key semantics: the lowering
// toggle is part of the compile fingerprint (keyVersion 6). That every
// schedule name shares one fingerprint and one tally is clause 4 of
// internal/service's TestKnobInvariants.
func TestCollectiveFingerprint(t *testing.T) {
	c := feedForwardCircuit()
	cfg := DefaultConfig(c.NumQubits)
	off, err := KeyFor(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collective = "ring"
	ring, err := KeyFor(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off == ring {
		t.Fatal("collective on/off share a fingerprint")
	}
}

// TestCollectiveBadSchedule pins that an unknown schedule name is rejected
// by Normalize — so by NewForCircuit, the key and Compile — with the
// parser's error, before anything is built or simulated.
func TestCollectiveBadSchedule(t *testing.T) {
	c := circuit.New(2)
	c.H(0).MeasureInto(0, 0)
	cfg := DefaultConfig(c.NumQubits)
	cfg.Collective = "rng"
	_, want := network.ParseCollSchedule("rng")
	if _, err := Normalize(c, 2, 1, cfg); err == nil || err.Error() != want.Error() {
		t.Fatalf("Normalize: %v, want %v", err, want)
	}
	if _, err := NewForCircuit(c, 2, 1, cfg); err == nil {
		t.Fatal("NewForCircuit built a machine for a bad collective schedule")
	}
	if _, err := Compile(c, nil, cfg, false); err == nil {
		t.Fatal("Compile accepted a bad collective schedule")
	}
	if _, err := New(cfg, c.NumQubits); err == nil {
		t.Fatal("New built a machine for a bad collective schedule")
	}
}
