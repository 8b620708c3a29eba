package chip

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
)

// bellProgram is a two-controller program — H, a CNOT committed as two
// halves, both qubits measured — driven straight through Commit. ry (when
// non-zero) appends a rotation of qubit 0 before the measurements so a
// table patch has something to change.
func bellProgram(m *Model, ry float64) (commit func(), measBits [][]int) {
	t0 := []TableEntry{
		{Role: RoleSingle, Kind: circuit.H, Qubit: 0},
		{Role: RoleControl, Kind: circuit.CNOT, Qubit: 0, Partner: 1},
		{Role: RoleSingle, Kind: circuit.RY, Param: ry, Qubit: 0},
		{Role: RoleMeasure, Kind: circuit.Measure, Qubit: 0},
	}
	t1 := []TableEntry{
		{Role: RoleParticipant, Kind: circuit.CNOT, Qubit: 1, Partner: 0},
		{Role: RoleMeasure, Kind: circuit.Measure, Qubit: 1},
	}
	m.SetTable(0, t0)
	m.SetTable(1, t1)
	commit = func() {
		m.Commit(0, PortXY, 1, 10)
		m.Commit(1, PortZ, 1, 40) // participant half first: the control entry still carries the gate
		m.Commit(0, PortZ, 2, 40)
		if ry != 0 {
			m.Commit(0, PortXY, 3, 60)
		}
		m.Commit(1, PortRO, 2, 100) // controller 1 measures before controller 0
		m.Commit(0, PortRO, 4, 110)
	}
	return commit, [][]int{{1}, {0}} // controller 0 writes bit 1, controller 1 bit 0
}

// live runs the program through Commit with a fresh seed and returns the
// delivered outcomes as bits.
func live(m *Model, commit func(), seed int64) []int {
	bits := make([]int, 2)
	m.SetDelivery(func(node, _ int, val uint32, _ int64) { bits[1-node] = int(val) })
	m.Reset(seed)
	commit()
	return bits
}

func TestTapeReplayMatchesCommits(t *testing.T) {
	for name, backend := range map[string]Backend{
		"statevec": NewStateVec(2, 1), "stabilizer": NewStabilizer(2, 1), "seeded": NewSeeded(1),
	} {
		m := model(backend)
		commit, measBits := bellProgram(m, 0)
		m.Reset(3)
		m.BeginTape()
		bits := live(m, commit, 3) // Reset inside abandons the recording...
		if tape := m.EndTape(measBits, bits); tape != nil {
			t.Fatalf("%s: a recording survived Reset", name)
		}
		bits = make([]int, 2)
		m.SetDelivery(func(node, _ int, val uint32, _ int64) { bits[1-node] = int(val) })
		m.Reset(3)
		m.BeginTape()
		commit()
		tape := m.EndTape(measBits, bits)
		if tape == nil {
			t.Fatalf("%s: self-check rejected a faithful recording", name)
		}
		if len(m.Errs) != 0 || m.Gates != 2 || m.Measurements != 2 {
			t.Fatalf("%s: recording disturbed the live path: errs %v gates %d meas %d", name, m.Errs, m.Gates, m.Measurements)
		}
		ones := 0
		for seed := int64(0); seed < 40; seed++ {
			got := make([]int, 2)
			m.Replay(tape, seed, got)
			if want := live(m, commit, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: replay %v, commits %v", name, seed, got, want)
			}
			ones += got[0]
		}
		if name != "seeded" && (ones == 0 || ones == 40) {
			t.Fatalf("%s: 40 seeds gave one outcome — the replay is not reseeding", name)
		}
		if _, isStab := backend.(*StabilizerBackend); isStab != (tape.affine != nil) {
			t.Fatalf("%s: outcome map hoisted = %v", name, tape.affine != nil)
		}
	}
}

// TestEndTapeSelfCheck: a tape whose measurements do not line up with what
// the compiler lowered, or whose bits differ from what the controllers
// stored, is not kept.
func TestEndTapeSelfCheck(t *testing.T) {
	record := func(measBits [][]int, flip bool) *Tape {
		m := model(NewStateVec(2, 1))
		commit, _ := bellProgram(m, 0)
		bits := make([]int, 2)
		m.SetDelivery(func(node, _ int, val uint32, _ int64) { bits[1-node] = int(val) })
		m.Reset(5)
		m.BeginTape()
		commit()
		if flip {
			bits[0] ^= 1
		}
		return m.EndTape(measBits, bits)
	}
	if record([][]int{{1}, {0}}, false) == nil {
		t.Fatal("faithful recording rejected")
	}
	for name, bad := range map[string][][]int{
		"controller 1 lowers no measurement":  {{1}, {}},
		"controller 0 lowers two":             {{1, 0}, {0}},
		"a controller the program never had":  {{1}},
		"measurement lowered, none committed": {{1}, {0}, {2}},
	} {
		if record(bad, false) != nil {
			t.Errorf("%s: recording kept", name)
		}
	}
	if record([][]int{{1}, {0}}, true) != nil {
		t.Error("recording kept though the controllers stored other bits")
	}
	if m := model(NewSeeded(1)); m.EndTape(nil, nil) != nil {
		t.Error("EndTape without BeginTape returned a tape")
	}
}

// TestReplayReadsPatchedTables: the tape names table rows, so swapping in
// tables that differ in an angle — what a BindParams patch does — replays
// the new angle.
func TestReplayReadsPatchedTables(t *testing.T) {
	m := model(NewStateVec(2, 1))
	commit, measBits := bellProgram(m, 0.4)
	bits := make([]int, 2)
	m.SetDelivery(func(node, _ int, val uint32, _ int64) { bits[1-node] = int(val) })
	m.Reset(1)
	m.BeginTape()
	commit()
	tape := m.EndTape(measBits, bits)
	if tape == nil {
		t.Fatal("recording rejected")
	}
	differs := false
	for _, angle := range []float64{0.4, 2.9} {
		commit, _ = bellProgram(m, angle) // installs the patched tables
		for seed := int64(0); seed < 30; seed++ {
			got := make([]int, 2)
			m.Replay(tape, seed, got)
			if want := live(m, commit, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("angle %v seed %d: replay %v, commits %v", angle, seed, got, want)
			}
			differs = differs || got[0] != got[1]
		}
	}
	if !differs {
		t.Fatal("the rotation never decorrelated the pair: the patched angle is not being exercised")
	}
}

// TestAffineDeclinesResetAndEPR: a reset's correction is conditioned on a
// draw and an EPR generation resets two qubits, so such tapes replay onto
// the tableau instead — with the same bits as the commits.
func TestAffineDeclinesResetAndEPR(t *testing.T) {
	for name, entry := range map[string]TableEntry{
		"reset": {Role: RoleSingle, Kind: circuit.Reset, Qubit: 0},
		"epr":   {Role: RoleControl, Kind: circuit.EPR, Qubit: 0, Partner: 1},
	} {
		m := model(NewStabilizer(2, 1))
		m.SetTable(0, []TableEntry{
			{Role: RoleSingle, Kind: circuit.H, Qubit: 0},
			entry,
			{Role: RoleParticipant, Kind: circuit.EPR, Qubit: 1, Partner: 0},
			{Role: RoleSingle, Kind: circuit.H, Qubit: 1},
			{Role: RoleMeasure, Kind: circuit.Measure, Qubit: 0},
			{Role: RoleMeasure, Kind: circuit.Measure, Qubit: 1},
		})
		commit := func() {
			m.Commit(0, PortXY, 1, 10)
			if name == "epr" {
				m.Commit(0, PortZ, 2, 40)
				m.Commit(0, PortZ, 3, 40)
			} else {
				m.Commit(0, PortXY, 2, 40)
			}
			m.Commit(0, PortXY, 4, 200)
			m.Commit(0, PortRO, 5, 300)
			m.Commit(0, PortRO, 6, 700)
		}
		var outs []int
		m.SetDelivery(func(_, _ int, val uint32, _ int64) { outs = append(outs, int(val)) })
		run := func(seed int64) []int {
			outs = nil
			m.Reset(seed)
			commit()
			return append([]int(nil), outs...)
		}
		m.Reset(2)
		m.BeginTape()
		outs = nil
		commit()
		tape := m.EndTape([][]int{{0, 1}}, outs)
		if tape == nil || len(m.Errs) != 0 {
			t.Fatalf("%s: recording rejected (errs %v)", name, m.Errs)
		}
		for seed := int64(0); seed < 30; seed++ {
			got := make([]int, 2)
			m.Replay(tape, seed, got)
			if want := run(seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: replay %v, commits %v", name, seed, got, want)
			}
		}
		if tape.affine != nil {
			t.Fatalf("%s: outcome map hoisted over an op it cannot express", name)
		}
	}
}
