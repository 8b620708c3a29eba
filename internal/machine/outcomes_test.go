package machine

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/network"
	"dhisq/internal/workloads"
)

// outcomeSeeds is the seeds the outcome-map tests run: 64 of them.
func outcomeSeeds() []int64 {
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = DeriveSeed(11, i)
	}
	return seeds
}

// dynamicQFT is a QFT on n logical qubits through the dual-rail embedding:
// feed-forward, every ancilla measured more than once.
func dynamicQFT(t *testing.T, n int) *circuit.Circuit {
	t.Helper()
	c, err := workloads.Dynamic(workloads.QFT(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rewrittenBits writes each of classical bits 0–7 twice, from two qubits
// with a branch on the first write between — the second write is the one a
// shot keeps — measures every qubit several times, and leaves bit 8
// unwritten.
func rewrittenBits() *circuit.Circuit {
	c := circuit.New(5)
	c.NumBits = 9
	for b := 0; b < 8; b++ {
		first, second := b%5, (b+2)%5
		c.H(first).T(first).H(second)
		c.MeasureInto(first, b)
		c.CondGate(circuit.X, circuit.Condition{Bits: []int{b}, Parity: 1}, second)
		c.MeasureInto(second, b)
	}
	return c
}

// seededMachines builds two loaded machines for c on the seeded backend:
// the one under test and the oracle.
func seededMachines(t *testing.T, c *circuit.Circuit, chips int) (m, ref *Machine) {
	t.Helper()
	cfg := DefaultConfig(c.NumQubits)
	cfg.Backend, cfg.Chips = BackendSeeded, chips
	w, h := network.NearSquareMesh(cfg.TotalQubits(c.NumQubits))
	return buildLoaded(t, c, w, h, cfg), buildLoaded(t, c, w, h, cfg)
}

// tallyShotsMatch runs seeds through TallyShot on m and through Shot on
// ref: the bits and the Result fields a tally reads must agree.
func tallyShotsMatch(t *testing.T, ctx string, m, ref *Machine, seeds ...int64) {
	t.Helper()
	for _, seed := range seeds {
		res, bits, err := m.TallyShot(seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", ctx, seed, err)
		}
		wantRes, wantBits, err := ref.Shot(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bits, wantBits) || res.EPRPairs != wantRes.EPRPairs || res.Net != wantRes.Net {
			t.Fatalf("%s seed %d: TallyShot gave bits %v, %d EPR pairs, net %+v\nShot gave %v, %d, %+v",
				ctx, seed, bits, res.EPRPairs, res.Net, wantBits, wantRes.EPRPairs, wantRes.Net)
		}
	}
}

// TestTallyShotMatchesShot: on the seeded backend every TallyShot after the
// checking one comes off the outcome map, and equals the full shot.
func TestTallyShotMatchesShot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		c     *circuit.Circuit
		chips int
	}{
		{"dynamic qft, 1 chip", dynamicQFT(t, 6), 1},
		{"dynamic qft, 2 chips", dynamicQFT(t, 6), 2},
		{"bits written twice", rewrittenBits(), 1},
	} {
		m, ref := seededMachines(t, tc.c, tc.chips)
		if m.Loaded().Static() {
			t.Fatalf("%s: program is static", tc.name)
		}
		seeds := outcomeSeeds()
		tallyShotsMatch(t, tc.name, m, ref, seeds...)
		if st := m.TapeStats(); st != (TapeStats{Replayed: uint64(len(seeds) - 1)}) {
			t.Fatalf("%s: %+v, want one checking shot and %d off the map", tc.name, st, len(seeds)-1)
		}
	}
}

// TestOutcomeMapNotAvailable: with an event log, with fabric contention,
// on the tableau, on the state vector, and without a circuit, TallyShot is
// Shot, and no map is built.
func TestOutcomeMapNotAvailable(t *testing.T) {
	logged := DefaultConfig(12)
	logged.Backend, logged.LogEvents = BackendSeeded, true
	contended := DefaultConfig(12)
	contended.Backend, contended.Net.LinkSerialization = BackendSeeded, 4
	tableau := DefaultConfig(12)
	tableau.Backend = BackendStabilizer
	dense := DefaultConfig(12)
	dense.Backend = BackendStateVec
	clifford, err := workloads.Dynamic(workloads.BV(6, workloads.AlternatingSecret))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		cfg  Config
	}{
		{"LogEvents", dynamicQFT(t, 6), logged},
		{"link_bw 4", dynamicQFT(t, 6), contended},
		{"stabilizer", clifford, tableau},
		{"statevec", dynamicQFT(t, 6), dense},
	} {
		m, ref := buildLoaded(t, tc.c, 4, 3, tc.cfg), buildLoaded(t, tc.c, 4, 3, tc.cfg)
		if m.mappable() {
			t.Fatalf("%s: the outcome map applies", tc.name)
		}
		for _, seed := range outcomeSeeds()[:4] {
			res, bits, err := m.TallyShot(seed)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantBits, err := ref.Shot(seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(bits, wantBits) {
				t.Fatalf("%s seed %d: TallyShot is not Shot", tc.name, seed)
			}
		}
		if st := m.TapeStats(); st != (TapeStats{}) || m.outMap != nil {
			t.Fatalf("%s: %+v, map built %v; want nothing", tc.name, st, m.outMap != nil)
		}
	}

	cfg := DefaultConfig(12)
	cfg.Backend = BackendSeeded
	cfg.Net.MeshW, cfg.Net.MeshH = 4, 3
	m, err := New(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if m.mappable() {
		t.Fatal("a machine built without a circuit has an outcome map")
	}
}

// TestOutcomeMapFallback: a map that misreads the circuit — every source
// one measurement later — fails the checking shot. The machine counts the
// fallback, serves nothing off the map, and every shot stays exact.
func TestOutcomeMapFallback(t *testing.T) {
	m, ref := seededMachines(t, dynamicQFT(t, 6), 1)
	m.outMap = outcomeSources(m.circ, m.publicBits())
	for b := range m.outMap {
		m.outMap[b].r++
	}
	tallyShotsMatch(t, "wrong map", m, ref, outcomeSeeds()[:8]...)
	if st := m.TapeStats(); st != (TapeStats{Fallbacks: 1}) {
		t.Fatalf("wrong map: %+v, want one fallback and nothing off the map", st)
	}
	// Another program does not bring a failed map back.
	other, err := CompileUncached(m.circ, nil, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(other); err != nil {
		t.Fatal(err)
	}
	tallyShotsMatch(t, "wrong map, reloaded", m, ref, outcomeSeeds()[8:12]...)
	if st := m.TapeStats(); st != (TapeStats{Fallbacks: 1}) {
		t.Fatalf("wrong map, reloaded: %+v", st)
	}
}

// TestOutcomeMapAcrossLoads: the map's check holds across BindParams
// patches of the program it was made on; another program is checked again.
func TestOutcomeMapAcrossLoads(t *testing.T) {
	skelCircuit := dynamicQFT(t, 6)
	skelCircuit.RYSym(0, "a").RYSym(3, "b")
	skelCircuit.MeasureInto(0, 0)
	cfg := DefaultConfig(skelCircuit.NumQubits)
	cfg.Backend = BackendSeeded
	m, err := NewForCircuit(skelCircuit, 4, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewForCircuit(skelCircuit, 4, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	skel, err := Compile(skelCircuit, nil, m.Cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	load := func(cp *compiler.Compiled) {
		t.Helper()
		for _, x := range []*Machine{m, ref} {
			if err := x.Load(cp); err != nil {
				t.Fatal(err)
			}
		}
	}
	seeds := outcomeSeeds()
	for i, vals := range []map[string]float64{{"a": 0.3, "b": 2.1}, {"a": 1.9, "b": 0.4}} {
		bound, err := skel.BindParams(vals)
		if err != nil {
			t.Fatal(err)
		}
		load(bound)
		tallyShotsMatch(t, "binding", m, ref, seeds[4*i:4*i+4]...)
	}
	if st := m.TapeStats(); st != (TapeStats{Replayed: 7}) {
		t.Fatalf("two bindings: %+v, want one checking shot and 7 off the map", st)
	}
	bound, err := skelCircuit.Bind(map[string]float64{"a": 1.9, "b": 0.4})
	if err != nil {
		t.Fatal(err)
	}
	other, err := CompileUncached(bound, nil, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	load(other)
	tallyShotsMatch(t, "other program", m, ref, seeds[8:11]...)
	if st := m.TapeStats(); st != (TapeStats{Replayed: 9}) {
		t.Fatalf("after another program: %+v, want a new checking shot then 2 off the map", st)
	}
}
