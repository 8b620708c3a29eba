package machine

import (
	"testing"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/network"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// runBits compiles, loads and runs c on a fresh machine built from cfg and
// returns the public classical bits, failing the test on any timing
// violation.
func runBits(t *testing.T, c *circuit.Circuit, cfg Config, seed int64) []int {
	t.Helper()
	cfg.Seed = seed
	w, h := network.NearSquareMesh(cfg.TotalQubits(c.NumQubits))
	m, err := NewForCircuit(c, w, h, cfg)
	if err != nil {
		t.Fatalf("NewForCircuit: %v", err)
	}
	cp, err := Compile(c, nil, m.Cfg, false)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := m.Load(cp); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Halted {
		t.Fatalf("machine did not halt")
	}
	if res.Misalignments != 0 || res.Overlaps != 0 || res.Inversions != 0 {
		t.Fatalf("timing violations: misalign=%d overlaps=%d inversions=%d",
			res.Misalignments, res.Overlaps, res.Inversions)
	}
	bits, err := m.ReadBits()
	if err != nil {
		t.Fatalf("ReadBits: %v", err)
	}
	return bits
}

// TestRemoteGateTruthTable runs every teleported gate construction end to
// end through the machine — EPR generation, herald traffic, feed-forward
// corrections — on computational-basis inputs where the outcome is
// deterministic, on both simulation backends and both placement policies.
func TestRemoteGateTruthTable(t *testing.T) {
	for _, backend := range []BackendKind{BackendStateVec, BackendStabilizer} {
		for _, pol := range []string{"rowmajor", "interaction"} {
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					for _, gate := range []string{"cnot", "cz-conj", "swap"} {
						c := circuit.New(2)
						if a == 1 {
							c.X(0)
						}
						if b == 1 {
							c.X(1)
						}
						switch gate {
						case "cnot":
							c.CNOT(0, 1)
						case "cz-conj": // H(1) CZ H(1) == CNOT(0,1)
							c.H(1)
							c.CZ(0, 1)
							c.H(1)
						case "swap":
							c.SWAP(0, 1)
						}
						c.MeasureNew(0)
						c.MeasureNew(1)
						var want0, want1 int
						if gate == "swap" {
							want0, want1 = b, a
						} else {
							want0, want1 = a, a^b
						}
						cfg := DefaultConfig(2)
						cfg.Chips = 2
						cfg.Backend = backend
						cfg.Placement = pol
						for seed := int64(1); seed <= 4; seed++ {
							bits := runBits(t, c, cfg, seed)
							if bits[0] != want0 || bits[1] != want1 {
								t.Fatalf("backend=%d pol=%s %s a=%d b=%d seed=%d: bits %d%d, want %d%d",
									backend, pol, gate, a, b, seed, bits[0], bits[1], want0, want1)
							}
						}
					}
				}
			}
		}
	}
}

// TestRemoteGHZAcrossChips entangles qubits spread over 2 and 3 chips into
// a GHZ state and checks the defining correlation shot by shot: all public
// bits agree, and both outcomes appear over the shot stream.
func TestRemoteGHZAcrossChips(t *testing.T) {
	for _, backend := range []BackendKind{BackendStateVec, BackendStabilizer} {
		for _, chips := range []int{2, 3} {
			n := 6
			c := circuit.New(n)
			c.H(0)
			for q := 1; q < n; q++ {
				c.CNOT(q-1, q)
			}
			for q := 0; q < n; q++ {
				c.MeasureNew(q)
			}
			cfg := DefaultConfig(n)
			cfg.Chips = chips
			cfg.Backend = backend
			seen := map[int]int{}
			for seed := int64(1); seed <= 40; seed++ {
				bits := runBits(t, c, cfg, seed)
				if len(bits) != n {
					t.Fatalf("chips=%d: %d public bits, want %d", chips, len(bits), n)
				}
				for q := 1; q < n; q++ {
					if bits[q] != bits[0] {
						t.Fatalf("backend=%d chips=%d seed=%d: GHZ correlation broken: %v", backend, chips, seed, bits)
					}
				}
				seen[bits[0]]++
			}
			if seen[0] == 0 || seen[1] == 0 {
				t.Fatalf("backend=%d chips=%d: GHZ outcomes not both observed: %v", backend, chips, seen)
			}
		}
	}
}

// TestSingleChipConfigByteIdentical proves Chips=1 is the degenerate case:
// it must produce the identical artifact fingerprint and the identical
// controller programs as the legacy Chips=0 config.
func TestSingleChipConfigByteIdentical(t *testing.T) {
	c := circuit.New(4)
	c.H(0).CNOT(0, 1).CNOT(1, 2).CNOT(2, 3)
	for q := 0; q < 4; q++ {
		c.MeasureNew(q)
	}
	base := DefaultConfig(4)
	one := base
	one.Chips = 1

	k0, err := KeyFor(c, nil, base)
	if err != nil {
		t.Fatalf("KeyFor chips=0: %v", err)
	}
	k1, err := KeyFor(c, nil, one)
	if err != nil {
		t.Fatalf("KeyFor chips=1: %v", err)
	}
	if k0 != k1 {
		t.Fatalf("chips=1 fingerprint differs from chips=0: %s vs %s", k1, k0)
	}

	m0, err := NewForCircuit(c, 2, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewForCircuit(c, 2, 2, one)
	if err != nil {
		t.Fatal(err)
	}
	cp0, err := CompileUncached(c, nil, m0.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp1, err := CompileUncached(c, nil, m1.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp0.Programs) != len(cp1.Programs) {
		t.Fatalf("program counts differ: %d vs %d", len(cp0.Programs), len(cp1.Programs))
	}
	for i := range cp0.Programs {
		a, b := cp0.Programs[i].Instrs, cp1.Programs[i].Instrs
		if len(a) != len(b) {
			t.Fatalf("controller %d: instruction counts differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("controller %d instr %d differs: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
	if cp1.PublicBits != 0 {
		t.Fatalf("chips=1 artifact has PublicBits=%d, want 0 (all public)", cp1.PublicBits)
	}
}

// TestRemoteGateStats checks the remote-gate accounting surfaces: the
// compile stats count cut gates, the run counts EPR pairs, and a
// single-chip run counts none.
func TestRemoteGateStats(t *testing.T) {
	c := circuit.New(4)
	c.H(0)
	c.CNOT(0, 2) // crosses the contiguous 2-chip boundary {0,1}|{2,3}
	c.CNOT(0, 1) // local
	for q := 0; q < 4; q++ {
		c.MeasureNew(q)
	}
	cfg := DefaultConfig(4)
	cfg.Chips = 2
	cfg.Backend = BackendStateVec
	w, h := network.NearSquareMesh(cfg.TotalQubits(4))
	m, err := NewForCircuit(c, w, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(c, nil, m.Cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Stats.RemoteGates != 1 {
		t.Fatalf("RemoteGates = %d, want 1", cp.Stats.RemoteGates)
	}
	if cp.PublicBits != 4 {
		t.Fatalf("PublicBits = %d, want 4", cp.PublicBits)
	}
	if err := m.Load(cp); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EPRPairs != 1 {
		t.Fatalf("EPRPairs = %d, want 1", res.EPRPairs)
	}

	single := DefaultConfig(4)
	single.Backend = BackendStateVec
	ms, err := NewForCircuit(c, 2, 2, single)
	if err != nil {
		t.Fatal(err)
	}
	cps, err := Compile(c, nil, ms.Cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Load(cps); err != nil {
		t.Fatal(err)
	}
	ress, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ress.EPRPairs != 0 || cps.Stats.RemoteGates != 0 {
		t.Fatalf("single-chip run counted EPR pairs (%d) or remote gates (%d)", ress.EPRPairs, cps.Stats.RemoteGates)
	}
}

// TestEPRLatencyShowsInMakespan: raising the EPR latency must not change
// results but must stretch the makespan of a remote-gate circuit.
func TestEPRLatencyShowsInMakespan(t *testing.T) {
	c := circuit.New(4)
	c.H(0)
	c.X(0)
	c.CNOT(0, 2)
	for q := 0; q < 4; q++ {
		c.MeasureNew(q)
	}
	run := func(lat int64) Result {
		cfg := DefaultConfig(4)
		cfg.Chips = 2
		cfg.EPRLatency = sim.Time(lat)
		cfg.Backend = BackendStateVec
		w, h := network.NearSquareMesh(cfg.TotalQubits(4))
		m, err := NewForCircuit(c, w, h, cfg)
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
		return res
	}
	fast := run(40)
	slow := run(2000)
	if slow.Makespan <= fast.Makespan {
		t.Fatalf("EPR latency 2000 makespan %d not above latency 40 makespan %d", slow.Makespan, fast.Makespan)
	}
}

// TestChipsExceedQubitsRejected: a partition needs at least one data qubit
// per chip.
func TestChipsExceedQubitsRejected(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	cfg := DefaultConfig(2)
	cfg.Chips = 3
	w, h := network.NearSquareMesh(cfg.TotalQubits(2))
	if _, err := NewForCircuit(c, w, h, cfg); err == nil {
		t.Fatalf("3 chips on 2 qubits must be rejected")
	}
}

// TestRemoteDVQELeavesNoActiveQubits: every data qubit of a 2-chip dvqe
// shot ends measured and every communication qubit ends reset, so the
// dense backend's amplitude array must be back to a single entry — comm
// qubits cost nothing outside their EPR windows (DESIGN.md §13).
func TestRemoteDVQELeavesNoActiveQubits(t *testing.T) {
	c, err := workloads.DistributedVQE(8, 2).Bind(workloads.DistributedVQEPoint(8, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(c.NumQubits)
	cfg.Chips = 2
	cfg.Backend = BackendStateVec
	w, h := network.NearSquareMesh(cfg.TotalQubits(c.NumQubits))
	m, err := NewForCircuit(c, w, h, cfg)
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
	state := m.Chip.Backend().(*chip.StateVecBackend).State
	for shot := 0; shot < 8; shot++ {
		m.Reset(DeriveSeed(3, shot))
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.EPRPairs == 0 {
			t.Fatal("dvqe over 2 chips generated no EPR pairs")
		}
		if n := state.ActiveQubits(); n != 0 {
			t.Fatalf("shot %d ended with %d active qubits", shot, n)
		}
	}
}
