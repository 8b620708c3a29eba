package runner

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/workloads"
)

// The commit-tape oracles. A static program's shots after the first are
// replayed off a tape instead of simulated (machine.Shot); every test here
// holds such a shot to the full simulation of the same shot — Reset, Run,
// ReadBits, what runShot was before the tape — with reflect.DeepEqual on
// the whole Shot: bits, seed and every field of the Result. No tolerance
// anywhere: the tape is an optimisation of a deterministic simulator.

// simulate is the oracle: every shot of base's stream simulated in full on
// a replica of its own, loaded with art (nil = the spec's own compile).
func simulate(t *testing.T, spec Spec, art *compiler.Compiled, base int64, shots int) *ShotSet {
	t.Helper()
	var machines []*machine.Machine
	var err error
	if art == nil {
		machines, _, err = start(spec, false, 0, 1, 1)
	} else {
		machines, err = Replicas(spec, nil, art, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	m := machines[0]
	set := &ShotSet{Shots: make([]Shot, shots), NumBits: spec.Circuit.NumBits}
	for k := range set.Shots {
		seed := machine.DeriveSeed(base, k)
		m.Reset(seed)
		res, err := m.Run()
		if err != nil {
			t.Fatalf("oracle shot %d: %v", k, err)
		}
		bits, err := m.ReadBits()
		if err != nil {
			t.Fatalf("oracle shot %d: %v", k, err)
		}
		set.Shots[k] = Shot{Index: k, Seed: seed, Result: res, Bits: bits}
	}
	if st := m.TapeStats(); st != (machine.TapeStats{}) {
		t.Fatalf("Reset/Run/ReadBits touched the tape: %+v", st)
	}
	return set
}

func sameSet(t *testing.T, ctx string, got, want *ShotSet) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for k := range want.Shots {
		if !reflect.DeepEqual(got.Shots[k], want.Shots[k]) {
			t.Fatalf("%s: shot %d diverged:\nsimulated %+v\nrunner    %+v", ctx, k, want.Shots[k], got.Shots[k])
		}
	}
	t.Fatalf("%s: sets diverged outside shots", ctx)
}

// tapeOracle runs spec the ways a replica gets used — one worker, two
// workers, a second job with another base seed on the same (pooled)
// replicas, and again after a re-Load of the artifact — and holds every
// shot to the oracle. static says whether the program must be taped:
// then every shot a replica ran after its first came off the tape and no
// recording fell back; otherwise no shot ever did.
func tapeOracle(t *testing.T, spec Spec, shots int, static bool) {
	t.Helper()
	machines, art, err := start(spec, false, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if art.Static() != static {
		t.Fatalf("compiled program static = %v, want %v", art.Static(), static)
	}
	baseA, baseB := spec.Cfg.Seed, spec.Cfg.Seed+1000
	wantA := simulate(t, spec, art, baseA, shots)
	wantB := simulate(t, spec, art, baseB, shots)

	run := func(ctx string, on []*machine.Machine, base int64, want *ShotSet) {
		t.Helper()
		got, err := RunOn(on, base, shots, spec.Circuit.NumBits)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		sameSet(t, ctx, got, want)
	}
	run("one worker", machines[:1], baseA, wantA)
	run("two workers", machines, baseB, wantB)
	run("second job, other seed", machines[:1], baseB, wantB)
	for _, m := range machines {
		if err := m.Load(art); err != nil {
			t.Fatal(err)
		}
	}
	run("after re-Load", machines, baseA, wantA)

	var replayed, fallbacks uint64
	for _, m := range machines {
		st := m.TapeStats()
		replayed += st.Replayed
		fallbacks += st.Fallbacks
	}
	if fallbacks != 0 {
		t.Fatalf("%d recording shots failed their self-check", fallbacks)
	}
	// Each replica simulates the first shot it is handed and replays the
	// rest; the second replica may or may not have been handed one.
	if total := uint64(4 * shots); static && (replayed > total-1 || replayed < total-2) {
		t.Fatalf("static program: %d of %d shots replayed, want all but one per replica", replayed, total)
	}
	if !static && replayed != 0 {
		t.Fatalf("feed-forward program replayed %d shots off a tape", replayed)
	}
}

// statevecSpec is a feed-forward-free non-Clifford circuit on 6 qubits
// with random measurement outcomes: BackendAuto resolves to the dense
// state vector, so a replay must keep the RNG stream in step.
func statevecSpec(seed int64) Spec {
	c := circuit.New(6)
	c.H(0).T(0).CNOT(0, 1).T(1).H(2).CNOT(2, 3).RXGate(4, 0.7).CNOT(4, 5)
	for q := 0; q < 6; q++ {
		c.MeasureInto(q, q)
	}
	cfg := machine.DefaultConfig(6)
	cfg.Seed = seed
	return Spec{Circuit: c, MeshW: 3, MeshH: 2, Cfg: cfg}
}

// seededSpec forces the timing-only seeded backend on the Clifford chain.
func seededSpec(seed int64) Spec {
	spec := cliffordSpec(seed)
	spec.Cfg.Backend = machine.BackendSeeded
	return spec
}

// TestBatchedMatchesUnbatched is the byte-identity contract the shot-lane
// path used to carry, now the tape's: a batch of shots run off one
// simulation of the control stack equals those shots each simulated on its
// own, shot for shot — bits, seeds and Results — across every backend kind.
func TestBatchedMatchesUnbatched(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"stabilizer", cliffordSpec(7)},
		{"statevec", statevecSpec(19)},
		{"seeded", seededSpec(23)},
	} {
		t.Run(tc.name, func(t *testing.T) { tapeOracle(t, tc.spec, 13, true) })
	}
}

// TestBatchedNonIdentityPlacement runs the tape under a non-identity
// placement policy, where a replayed measurement's classical bit must
// follow the compiled per-controller order, not the logical qubit index.
func TestBatchedNonIdentityPlacement(t *testing.T) {
	spec := cliffordSpec(9)
	spec.Cfg.Placement = "interaction"
	tapeOracle(t, spec, 8, true)
}

// autoSpec sizes a spec for c the way the CLIs do.
func autoSpec(c *circuit.Circuit, backend machine.BackendKind, seed int64) Spec {
	w, h := placement.AutoMesh(c.NumQubits)
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Backend, cfg.Seed = backend, seed
	return Spec{Circuit: c, MeshW: w, MeshH: h, Cfg: cfg}
}

// TestTapedMatchesSimulated walks the static workloads — the golden
// fixtures' circuits, a GHZ chain behind a reset (no outcome map), the
// benchmark's ghz_n128 and a 30-qubit QFT — over every backend that can
// hold them.
func TestTapedMatchesSimulated(t *testing.T) {
	all := []machine.BackendKind{machine.BackendStateVec, machine.BackendStabilizer, machine.BackendSeeded}
	names := map[machine.BackendKind]string{
		machine.BackendStateVec: "statevec", machine.BackendStabilizer: "stabilizer", machine.BackendSeeded: "seeded",
	}
	for _, tc := range []struct {
		name     string
		c        *circuit.Circuit
		backends []machine.BackendKind
		shots    int
	}{
		{"ghz_n9", workloads.GHZ(9), all, 24},
		{"ghz_n9_reset", ghzChain(9, true), all, 24},
		{"bv_n10", workloads.BV(10, workloads.AlternatingSecret), all, 24},
		{"qft_n8", workloads.QFT(8), []machine.BackendKind{machine.BackendStateVec, machine.BackendSeeded}, 24},
		{"ghz_n128", workloads.GHZ(128), []machine.BackendKind{machine.BackendStabilizer, machine.BackendSeeded}, 6},
		{"qft_n30", workloads.QFT(30), []machine.BackendKind{machine.BackendSeeded}, 4},
	} {
		for _, backend := range tc.backends {
			t.Run(tc.name+"/"+names[backend], func(t *testing.T) {
				tapeOracle(t, autoSpec(tc.c, backend, 7), tc.shots, true)
			})
		}
	}
}

// TestFeedForwardNeverTaped: programs whose control flow reads outcomes —
// the 2-chip teleport fixture, the benchmark's dual-rail BV and QFT — are
// never taped, and run exactly as the full simulation does.
func TestFeedForwardNeverTaped(t *testing.T) {
	bell := circuit.New(4)
	bell.H(0).CNOT(0, 2).CNOT(2, 3)
	for q := 0; q < 4; q++ {
		bell.MeasureInto(q, q)
	}
	remote := autoSpec(bell, machine.BackendAuto, 7)
	remote.Cfg.Chips, remote.Cfg.EPRLatency = 2, 40
	remote.MeshW, remote.MeshH = network.NearSquareMesh(remote.Cfg.TotalQubits(4))
	t.Run("remote_cnot_2chip", func(t *testing.T) { tapeOracle(t, remote, 12, false) })

	for _, name := range []string{"bv_n400", "qft_n30"} {
		div := 1
		if name == "bv_n400" {
			div = 8
		}
		b, err := workloads.BuildScaled(name, div)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig(b.Qubits)
		cfg.Seed = 5
		spec := Spec{Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH, Mapping: b.Mapping, Cfg: cfg}
		t.Run(name, func(t *testing.T) { tapeOracle(t, spec, 4, false) })
	}
}

// TestBatchableRejectsFeedForward pins the static predicate — what
// runner.Batchable was when shot lanes consumed it — where it now lives:
// on the program the compiler actually lowered. Conditioned ops and
// re-measured bits clear it; so does the multi-chip expansion of a circuit
// that shows neither, which the circuit-level predicate called batchable
// and then died on ("controller 3 committed 1 measurements, program
// lowers 0").
func TestBatchableRejectsFeedForward(t *testing.T) {
	static := func(spec Spec) bool {
		t.Helper()
		_, art, err := start(spec, false, 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return art.Static()
	}
	if static(dynamicSpec(3)) {
		t.Fatal("feed-forward circuit compiled static")
	}
	re := circuit.New(2)
	re.H(0).MeasureInto(0, 0).H(1).MeasureInto(1, 0) // bit 0 written twice
	if static(autoSpec(re, machine.BackendAuto, 1)) {
		t.Fatal("re-measured bit compiled static")
	}
	if !static(cliffordSpec(1)) {
		t.Fatal("plain measured circuit compiled non-static")
	}

	ghz := autoSpec(workloads.GHZ(6), machine.BackendAuto, 3)
	if !static(ghz) {
		t.Fatal("single-chip GHZ compiled non-static")
	}
	ghz.Cfg.Chips, ghz.Cfg.Placement = 2, "interaction"
	ghz.MeshW, ghz.MeshH = network.NearSquareMesh(ghz.Cfg.TotalQubits(6))
	tapeOracle(t, ghz, 6, false)
}

// TestTapeAcrossBindPoints: a static parameterized circuit keeps one tape
// across the points of a sweep — a BindParams patch shares its programs —
// and every point's shots equal the full simulation of the bound circuit.
func TestTapeAcrossBindPoints(t *testing.T) {
	spec, points := sweepSpec(5, 2)
	const shots = 5
	for _, workers := range []int{1, 2} {
		got, err := RunSweep(spec, points, shots, workers)
		if err != nil {
			t.Fatal(err)
		}
		for k, pt := range got {
			bound, err := spec.Circuit.Bind(points[k])
			if err != nil {
				t.Fatal(err)
			}
			boundSpec := spec
			boundSpec.Circuit = bound
			sameSet(t, "sweep point", pt.Set, simulate(t, boundSpec, nil, machine.DeriveSeed(spec.Cfg.Seed, k), shots))
		}
	}

	// On one replica the whole sweep records once.
	machines, skel, err := start(spec, true, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPoints(machines, skel, spec.Cfg.Seed, points, shots, Observer{}); err != nil {
		t.Fatal(err)
	}
	if st, want := machines[0].TapeStats(), uint64(len(points)*shots-1); st.Replayed != want || st.Fallbacks != 0 {
		t.Fatalf("sweep on one replica: %+v, want %d replayed", st, want)
	}
}

// TestTapeKeepsRefereeVerdict: a tree fabric with finite link bandwidth
// delays one half of a two-qubit gate past the other — the chip counts
// the misalignment on the simulated shot, and a taped shot reports the
// same count: the tape reuses the referee's verdict, it does not skip the
// referee.
func TestTapeKeepsRefereeVerdict(t *testing.T) {
	spec := cliffordSpec(5)
	spec.Cfg.Net.Topology = network.TopoTree
	spec.Cfg.Net.LinkSerialization = 8
	tapeOracle(t, spec, 6, true)
	set, err := Run(spec, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := set.Shots[0].Result
	if first.Misalignments == 0 {
		t.Fatal("the congested tree produced no misalignment: the test no longer tests anything")
	}
	for k, s := range set.Shots {
		if s.Result.Misalignments != first.Misalignments || s.Result.Violations != first.Violations || s.Result.Overlaps != first.Overlaps {
			t.Fatalf("shot %d reports %d/%d/%d misalignments/violations/overlaps, simulated shot 0 %d/%d/%d", k,
				s.Result.Misalignments, s.Result.Violations, s.Result.Overlaps,
				first.Misalignments, first.Violations, first.Overlaps)
		}
	}
}

// ghzChain is the benchmark's shots_heavy GHZ job, optionally behind a
// reset of qubit 0: a no-op on |0>, but a reset's correction is conditioned
// on a draw, so the tape's outcome map is not hoisted and every shot
// replays the tape onto the tableau.
func ghzChain(n int, resetFirst bool) *circuit.Circuit {
	c := circuit.New(n)
	if resetFirst {
		c.ResetGate(0)
	}
	c.H(0)
	for q := 1; q < n; q++ {
		c.CNOT(q-1, q)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// TestTapedShotAllocations: a taped shot of either GHZ chain allocates its
// Bits slice and nothing else, and handles no engine event. The recording
// shot handles them all; the engine is cleared after it, so a taped shot
// that fell back to simulation would count its events again.
func TestTapedShotAllocations(t *testing.T) {
	for _, resetFirst := range []bool{false, true} {
		name := "ghz_n128"
		if resetFirst {
			name += "_reset"
		}
		t.Run(name, func(t *testing.T) {
			spec := autoSpec(ghzChain(128, resetFirst), machine.BackendStabilizer, 3)
			machines, _, err := start(spec, false, 0, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			m := machines[0]
			if _, err := runShot(m, 3, 0); err != nil {
				t.Fatal(err)
			}
			recorded := m.Eng.Processed()
			if recorded == 0 {
				t.Fatal("the recording shot handled no engine event")
			}
			m.Eng.Reset()
			k := 1 // AllocsPerRun's warm-up shot builds the outcome map, if any
			allocs := testing.AllocsPerRun(48, func() {
				if _, err := runShot(m, 3, k); err != nil {
					t.Fatal(err)
				}
				k++
			})
			t.Logf("recording shot: %d events; %d taped shots: %d events, %.1f allocations each",
				recorded, k-1, m.Eng.Processed(), allocs)
			if events := m.Eng.Processed(); events != 0 {
				t.Fatalf("%d taped shots handled %d engine events, want 0", k-1, events)
			}
			if allocs > 2 {
				t.Fatalf("a taped shot allocates %.1f times, want at most 2", allocs)
			}
			if st := m.TapeStats(); st.Replayed != uint64(k-1) || st.Fallbacks != 0 {
				t.Fatalf("shots did not come off the tape: %+v", st)
			}
		})
	}
}
