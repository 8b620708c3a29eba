package runner

import (
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
