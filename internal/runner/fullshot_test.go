package runner

import (
	"reflect"
	"testing"

	"dhisq/internal/machine"
	"dhisq/internal/workloads"
)

// The full-stack shot: the program classes the commit tape cannot
// reach, because each has feed-forward — every shot of theirs crosses the
// event engine, the controllers, the fabric and the chip. They are the
// benchmark's: shots_heavy and warm_* submit bv_n400/8 and qft_n30,
// sweep_stream the 2-chip dvqe.

type fullShotCase struct {
	name string
	spec Spec
}

// fullShotCeiling is the allocations a steady-state shot may make, the
// measured count for every class: the Bits slice.
const fullShotCeiling = 1

func scaledSpec(t testing.TB, name string, scale int) Spec {
	t.Helper()
	b, err := workloads.BuildScaled(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH, Mapping: b.Mapping,
		Cfg: machine.DefaultConfig(b.Qubits),
	}
}

func fullShotCases(t testing.TB) []fullShotCase {
	t.Helper()
	const qubits, layers = 12, 2
	dvqe, err := workloads.DistributedVQE(qubits, layers).Bind(workloads.DistributedVQEPoint(qubits, layers, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(qubits)
	cfg.Chips, cfg.Placement = 2, "interaction"
	contended := scaledSpec(t, "bv_n400", 8)
	contended.Cfg.Net.LinkSerialization = 4
	return []fullShotCase{
		// Clifford, 50 controllers: BackendAuto resolves to the stabilizer.
		{"bv_n400/8", scaledSpec(t, "bv_n400", 8)},
		// The same shot on finite-bandwidth links: its messages queue, and
		// the fabric's congestion snapshot is part of the shot.
		{"bv_n400/8_link_bw4", contended},
		// Dual-rail, 30 controllers, not Clifford: the seeded backend.
		{"qft_n30", scaledSpec(t, "qft_n30", 1)},
		// 12 data + 2 communication qubits: the dense state vector.
		{"dvqe_n12_c2", Spec{Circuit: dvqe, Cfg: cfg}},
	}
}

// runShot is execShot for a shot whose Result is kept: always Shot.
func runShot(m *machine.Machine, base int64, k int) (Shot, error) {
	return execShot(m, base, k, false)
}

// fullShotMachine returns one loaded replica of spec, warmed until its
// queues and scratch have reached their steady-state capacity.
func fullShotMachine(t testing.TB, spec Spec) *machine.Machine {
	t.Helper()
	machines, art, err := start(spec, false, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if art.Static() {
		t.Fatal("program is static: its shots would come off the tape")
	}
	m := machines[0]
	for k := 0; k < 8; k++ {
		if _, err := runShot(m, 7, k); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestFullShotAllocations holds a steady-state full-stack shot of each
// class to its measured allocation count.
func TestFullShotAllocations(t *testing.T) {
	for _, tc := range fullShotCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			m := fullShotMachine(t, tc.spec)
			k := 8
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := runShot(m, 7, k); err != nil {
					t.Fatal(err)
				}
				k++
			})
			t.Logf("%s: %.1f allocations per shot", tc.name, allocs)
			if allocs > fullShotCeiling {
				t.Fatalf("a full shot allocates %.1f times, want at most %d", allocs, fullShotCeiling)
			}
			if st := m.TapeStats(); st != (machine.TapeStats{}) {
				t.Fatalf("shots touched the tape: %+v", st)
			}
		})
	}
}

// BenchmarkFullShot times the same shots (EXPERIMENTS.md, "Feed-forward
// shot on shots_heavy").
func BenchmarkFullShot(b *testing.B) {
	for _, tc := range fullShotCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			m := fullShotMachine(b, tc.spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runShot(m, 7, 8+i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTallyShotAllocations: past its checking shot, a seeded feed-forward
// shot that only a tally reads comes off the outcome map
// (machine.TallyShot), counted as replayed, and allocates no more than a
// full shot: the Bits slice.
func TestTallyShotAllocations(t *testing.T) {
	m := fullShotMachine(t, scaledSpec(t, "qft_n30", 1))
	if _, err := execShot(m, 7, 8, true); err != nil { // the checking shot
		t.Fatal(err)
	}
	k := 9
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := execShot(m, 7, k, true); err != nil {
			t.Fatal(err)
		}
		k++
	})
	t.Logf("qft_n30: %.1f allocations per shot off the outcome map", allocs)
	if allocs > fullShotCeiling {
		t.Fatalf("a shot off the outcome map allocates %.1f times, want at most %d", allocs, fullShotCeiling)
	}
	if st := m.TapeStats(); st != (machine.TapeStats{Replayed: 51}) {
		t.Fatalf("tape stats %+v, want the 51 shots after the checking one replayed", st)
	}
}

// TestRunPointsFoldsSeededShots: the tallies RunPoints folds off the
// outcome map for two points equal the folds of the same shots run in
// full, at one and three replicas.
func TestRunPointsFoldsSeededShots(t *testing.T) {
	const shots = 12
	spec := scaledSpec(t, "qft_n30", 2)
	spec.Cfg.Seed = 5
	spec1 := spec
	spec1.Cfg.Seed = machine.DeriveSeed(spec.Cfg.Seed, 1)
	var want [2]Tally
	for k, s := range []Spec{spec, spec1} {
		set, err := Run(s, shots, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = set.Tally()
	}
	for _, workers := range []int{1, 3} {
		machines, art, err := start(spec, false, shots, shots, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunPoints(machines, art, spec.Cfg.Seed, []map[string]float64{nil, nil}, shots, Observer{})
		if err != nil {
			t.Fatal(err)
		}
		var st machine.TapeStats
		for _, m := range machines {
			st.Replayed += m.TapeStats().Replayed
			st.Fallbacks += m.TapeStats().Fallbacks
		}
		if st.Fallbacks != 0 || st.Replayed == 0 {
			t.Fatalf("%d replicas: tape stats %+v, want shots off the outcome map and no fallback", workers, st)
		}
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("%d replicas: point %d's tally %+v, its full shots' %+v", workers, k, got[k], want[k])
			}
		}
	}
}
