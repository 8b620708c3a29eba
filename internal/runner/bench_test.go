package runner

import (
	"fmt"
	"testing"

	"dhisq/internal/machine"
	"dhisq/internal/workloads"
)

// benchSpec is a mid-size Clifford benchmark: big enough that a shot does
// real work, small enough that b.N shots stay benchmark-friendly.
func benchSpec(tb testing.TB) Spec {
	b, err := workloads.BuildScaled("bv_n400", 8)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := machine.DefaultConfig(b.Qubits)
	cfg.Backend = machine.BackendSeeded
	cfg.Seed = 1
	return Spec{Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH, Mapping: b.Mapping, Cfg: cfg}
}

// BenchmarkShotRunner compares the three shot-execution strategies on the
// same workload: the legacy rebuild-per-shot path, the compile-once/reset
// path at one worker, and the worker pool at four. The acceptance bar is
// reset-w1 beating rebuild and reset-w4 at >= 2x rebuild throughput.
func BenchmarkShotRunner(b *testing.B) {
	spec := benchSpec(b)
	b.Run("rebuild", func(b *testing.B) {
		if _, err := runRebuild(spec, b.N); err != nil {
			b.Fatal(err)
		}
	})
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("reset-w%d", w), func(b *testing.B) {
			if _, err := Run(spec, b.N, w); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRunPoints times a 16-shot plain job on one warm replica through
// the tally path a service job takes (no Observer.Shot): qft_n30 on the
// seeded backend, whose shots past the first come off the outcome map, and
// bv_n400/8 on the tableau, which simulates every shot.
func BenchmarkRunPoints(b *testing.B) {
	const shots = 16
	for _, tc := range []struct {
		name, bench string
		scale       int
	}{{"qft_n30", "qft_n30", 1}, {"bv_n400/8", "bv_n400", 8}} {
		b.Run(tc.name, func(b *testing.B) {
			spec := scaledSpec(b, tc.bench, tc.scale)
			machines, art, err := start(spec, false, shots, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			points := []map[string]float64{nil}
			if _, err := RunPoints(machines, art, 1, points, shots, Observer{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunPoints(machines, art, int64(i+2), points, shots, Observer{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
