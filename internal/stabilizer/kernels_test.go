package stabilizer

import (
	"fmt"
	"math/rand"
	"testing"
)

// tableauKernels is what BenchmarkKernels drives on both layouts.
type tableauKernels interface {
	H(q int)
	S(q int)
	CNOT(c, t int)
	CZ(a, b int)
	SWAP(a, b int)
	MeasureZ(q int, rng *rand.Rand) int
	MeasureDeterministic(q int) (int, bool)
}

// BenchmarkKernels times the column-major tableau against the row-major
// reference at adder-scale qubit counts, one ref/new pair per kernel, gates
// round-robin over neighbouring qubits. measure_det is the deterministic
// measurement on a collapsed GHZ state, the op that dominates stabilizer
// shots: the reference clones the whole tableau per call, the rewrite is
// read-only. EXPERIMENTS.md records a run.
func BenchmarkKernels(b *testing.B) {
	gates := []struct {
		name string
		fn   func(t tableauKernels, a, b int)
	}{
		{"h", func(t tableauKernels, a, _ int) { t.H(a) }},
		{"s", func(t tableauKernels, a, _ int) { t.S(a) }},
		{"cnot", func(t tableauKernels, a, b int) { t.CNOT(a, b) }},
		{"cz", func(t tableauKernels, a, b int) { t.CZ(a, b) }},
		{"swap", func(t tableauKernels, a, b int) { t.SWAP(a, b) }},
	}
	sides := []struct {
		name string
		make func(n int) tableauKernels
	}{
		{"ref", func(n int) tableauKernels { return NewRef(n) }},
		{"new", func(n int) tableauKernels { return New(n) }},
	}
	for _, n := range []int{256, 1024} {
		for _, g := range gates {
			for _, side := range sides {
				b.Run(fmt.Sprintf("%s/n%d/%s", g.name, n, side.name), func(b *testing.B) {
					t := side.make(n)
					for i := 0; b.Loop(); i++ {
						a := i % n
						g.fn(t, a, (a+1)%n)
					}
				})
			}
		}
		for _, side := range sides {
			b.Run(fmt.Sprintf("measure_det/n%d/%s", n, side.name), func(b *testing.B) {
				t := side.make(n)
				t.H(0)
				for q := 1; q < n; q++ {
					t.CNOT(q-1, q)
				}
				t.MeasureZ(0, rand.New(rand.NewSource(7)))
				for i := 0; b.Loop(); i++ {
					t.MeasureDeterministic(i % n)
				}
			})
		}
	}
}
