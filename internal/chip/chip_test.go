package chip

import (
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/sim"
)

func model(backend Backend) *Model {
	return New(sim.NewEngine(), backend)
}

func TestSingleQubitCommit(t *testing.T) {
	m := model(NewStateVec(1, 1))
	m.SetTable(0, []TableEntry{{Role: RoleSingle, Kind: circuit.X, Qubit: 0}})
	m.Commit(0, PortXY, 1, 10)
	if m.Gates != 1 || len(m.Errs) != 0 {
		t.Fatalf("gates=%d errs=%v", m.Gates, m.Errs)
	}
	sv := m.Backend().(*StateVecBackend)
	if sv.State.Prob(0) < 0.999 {
		t.Fatal("X not applied")
	}
}

func TestMeasurementDelivery(t *testing.T) {
	m := model(NewStateVec(1, 1))
	m.SetTable(0, []TableEntry{
		{Role: RoleSingle, Kind: circuit.X, Qubit: 0},
		{Role: RoleMeasure, Kind: circuit.Measure, Qubit: 0, Channel: 3},
	})
	var gotVal uint32
	var gotAt sim.Time
	var gotCh int
	m.SetDelivery(func(node, ch int, val uint32, at sim.Time) {
		gotCh, gotVal, gotAt = ch, val, at
	})
	m.Commit(0, PortXY, 1, 5)
	m.Commit(0, PortRO, 2, 100)
	if m.Measurements != 1 {
		t.Fatal("measurement not counted")
	}
	if gotVal != 1 || gotAt != 180 || gotCh != 3 {
		t.Fatalf("delivery = ch%d val%d at%d", gotCh, gotVal, gotAt)
	}
}

func twoQubitTables(m *Model) {
	m.SetTable(0, []TableEntry{{Role: RoleControl, Kind: circuit.CNOT, Qubit: 0, Partner: 1}})
	m.SetTable(1, []TableEntry{{Role: RoleParticipant, Kind: circuit.CNOT, Qubit: 1, Partner: 0}})
}

func TestTwoQubitCoCommit(t *testing.T) {
	m := model(NewStateVec(2, 1))
	twoQubitTables(m)
	sv := m.Backend().(*StateVecBackend)
	sv.State.X(0)
	m.Commit(0, PortZ, 1, 50)
	if m.Gates != 0 {
		t.Fatal("gate applied with one half")
	}
	m.Commit(1, PortZ, 1, 50)
	if m.Gates != 1 || len(m.Violations) != 0 {
		t.Fatalf("gates=%d violations=%v", m.Gates, m.Violations)
	}
	if sv.State.Prob(1) < 0.999 {
		t.Fatal("CNOT not applied")
	}
	if m.PendingHalves() != 0 {
		t.Fatal("pending halves remain")
	}
}

func TestMisalignedHalvesFlagged(t *testing.T) {
	m := model(NewStateVec(2, 1))
	twoQubitTables(m)
	m.Commit(0, PortZ, 1, 50)
	m.Commit(1, PortZ, 1, 53)
	if len(m.Violations) != 1 {
		t.Fatalf("violations = %v", m.Violations)
	}
	v := m.Violations[0]
	if v.TimeA != 50 || v.TimeB != 53 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestWrongPortRejected(t *testing.T) {
	m := model(NewStateVec(1, 1))
	m.SetTable(0, []TableEntry{{Role: RoleMeasure, Kind: circuit.Measure, Qubit: 0}})
	m.Commit(0, PortXY, 1, 10) // measurement trigger on the XY port
	if len(m.Errs) != 1 {
		t.Fatalf("errs = %v", m.Errs)
	}
}

func TestOccupancyOverlapDetected(t *testing.T) {
	m := model(NewStateVec(1, 1))
	m.SetTable(0, []TableEntry{{Role: RoleSingle, Kind: circuit.H, Qubit: 0}})
	m.Commit(0, PortXY, 1, 10) // busy until 15
	m.Commit(0, PortXY, 1, 12)
	if m.Overlaps != 1 {
		t.Fatalf("overlaps = %d", m.Overlaps)
	}
}

func TestOrderInversionDetected(t *testing.T) {
	m := model(NewSeeded(1))
	m.SetTable(0, []TableEntry{{Role: RoleSingle, Kind: circuit.H, Qubit: 0}})
	m.Commit(0, PortXY, 1, 100)
	m.Commit(0, PortXY, 1, 40)
	if m.OrderInversions != 1 {
		t.Fatalf("inversions = %d", m.OrderInversions)
	}
}

func TestCodewordZeroIsNop(t *testing.T) {
	m := model(NewSeeded(1))
	m.SetTable(0, nil)
	m.Commit(0, PortXY, 0, 10)
	if len(m.Errs) != 0 || m.Gates != 0 {
		t.Fatal("codeword 0 must be ignored")
	}
}

func TestSeededBackendOrderIndependence(t *testing.T) {
	// The same (qubit, repetition) must yield the same outcome no matter
	// when other qubits are measured — the Fig. 15 fairness property.
	a := NewSeeded(9)
	_ = a.Apply(circuit.Measure, 0, 1, 0)
	q0a := []int{a.Apply(circuit.Measure, 0, 0, 0), a.Apply(circuit.Measure, 0, 0, 0)}
	b := NewSeeded(9)
	q0b := []int{b.Apply(circuit.Measure, 0, 0, 0)}
	_ = b.Apply(circuit.Measure, 0, 1, 0)
	q0b = append(q0b, b.Apply(circuit.Measure, 0, 0, 0))
	for i := range q0a {
		if q0a[i] != q0b[i] {
			t.Fatal("seeded outcomes depend on global order")
		}
	}
}

func TestStabilizerBackendReset(t *testing.T) {
	b := NewStabilizer(2, 3)
	b.Apply(circuit.X, 0, 0, 0)
	b.Apply(circuit.Reset, 0, 0, 0)
	if out := b.Apply(circuit.Measure, 0, 0, 0); out != 0 {
		t.Fatalf("reset failed: %d", out)
	}
}
