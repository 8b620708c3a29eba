package chip

import (
	"testing"

	"dhisq/internal/circuit"
)

// eprTables wires controllers 2 and 3 as the comm-qubit pair of an EPR
// generation between qubits 2 and 3.
func eprTables(m *Model) {
	m.SetTable(2, []TableEntry{{Role: RoleControl, Kind: circuit.EPR, Qubit: 2, Partner: 3}})
	m.SetTable(3, []TableEntry{{Role: RoleParticipant, Kind: circuit.EPR, Qubit: 3, Partner: 2}})
}

// TestEPRCommitPreparesBellPair pins the chip-level semantics of the EPR
// kind: both comm qubits are discarded and re-prepared as (|00>+|11>)/√2
// regardless of their prior state, and the generation counts in EPRPairs.
func TestEPRCommitPreparesBellPair(t *testing.T) {
	m := model(NewStateVec(4, 1))
	eprTables(m)
	sv := m.Backend().(*StateVecBackend)
	sv.State.X(2) // junk the comm qubits so the reset is observable
	m.Commit(2, PortZ, 1, 50)
	if m.EPRPairs != 0 {
		t.Fatal("pair counted with one half committed")
	}
	m.Commit(3, PortZ, 1, 50)
	if m.EPRPairs != 1 || m.Gates != 1 || len(m.Violations) != 0 {
		t.Fatalf("pairs=%d gates=%d violations=%v", m.EPRPairs, m.Gates, m.Violations)
	}
	// Both comm qubits now agree perfectly: P(q2=1) = P(q3=1) = 1/2 and
	// measuring one pins the other.
	if p := sv.State.Prob(2); p < 0.499 || p > 0.501 {
		t.Fatalf("P(q2=1) = %v, want 0.5", p)
	}
	got2 := sv.Apply(circuit.Measure, 0, 2, 0)
	got3 := sv.Apply(circuit.Measure, 0, 3, 0)
	if got2 != got3 {
		t.Fatalf("Bell halves disagree: %d vs %d", got2, got3)
	}
}

// TestEPRLatencyOccupiesCommQubits pins the resource cost: with EPRLatency
// set, a commit that lands on a comm qubit inside the generation window is
// an occupancy overlap; with the window past, it is not.
func TestEPRLatencyOccupiesCommQubits(t *testing.T) {
	m := model(NewStateVec(4, 1))
	m.EPRLatency = 500
	eprTables(m)
	m.SetTable(0, []TableEntry{{Role: RoleSingle, Kind: circuit.X, Qubit: 2}})
	m.Commit(2, PortZ, 1, 50)
	m.Commit(3, PortZ, 1, 50)
	m.Commit(0, PortXY, 1, 300) // inside [50, 550)
	if m.Overlaps != 1 {
		t.Fatalf("overlaps = %d, want the mid-generation commit flagged", m.Overlaps)
	}
	m2 := model(NewStateVec(4, 1))
	m2.EPRLatency = 500
	eprTables(m2)
	m2.SetTable(0, []TableEntry{{Role: RoleSingle, Kind: circuit.X, Qubit: 2}})
	m2.Commit(2, PortZ, 1, 50)
	m2.Commit(3, PortZ, 1, 50)
	m2.Commit(0, PortXY, 1, 600) // past the window
	if m2.Overlaps != 0 {
		t.Fatalf("overlaps = %d after the generation window", m2.Overlaps)
	}
}

// TestCommRNGSeparation pins the herald-RNG split (DESIGN.md §12): with a
// comm boundary set, measuring a communication qubit draws from the
// dedicated herald stream, so the data qubits' main-stream draws are
// unchanged by interleaved herald measurements.
func TestCommRNGSeparation(t *testing.T) {
	type commBackend interface {
		Backend
		CommAware
	}
	for name, mk := range map[string]func() commBackend{
		"statevec":   func() commBackend { return NewStateVec(2, 42) },
		"stabilizer": func() commBackend { return NewStabilizer(2, 42) },
	} {
		plain := mk()
		plain.Apply(circuit.H, 0, 0, 0)
		want := plain.Apply(circuit.Measure, 0, 0, 0) // first main-stream draw

		split := mk()
		split.SetCommFrom(1)
		split.Apply(circuit.H, 0, 0, 0)
		split.Apply(circuit.H, 0, 1, 0)
		split.Apply(circuit.Measure, 0, 1, 0) // herald stream: must not consume a main draw
		if got := split.Apply(circuit.Measure, 0, 0, 0); got != want {
			t.Fatalf("%s: data-qubit draw shifted by a herald measurement: %d vs %d", name, got, want)
		}

		// SetCommFrom(0) disables the split again.
		off := mk()
		off.SetCommFrom(1)
		off.SetCommFrom(0)
		off.Apply(circuit.H, 0, 1, 0)
		off.Apply(circuit.H, 0, 0, 0)
		off.Apply(circuit.Measure, 0, 1, 0) // now a main-stream draw
		_ = off.Apply(circuit.Measure, 0, 0, 0)
	}
}
