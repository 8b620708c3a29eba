package compiler_test

import (
	"fmt"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/network"
	"dhisq/internal/workloads"
)

// compileCase is one circuit with the fabric it compiles for, built once so
// a measurement times the pass pipeline and nothing else.
type compileCase struct {
	c       *circuit.Circuit
	mapping []int
	topo    *network.Topology
	opt     compiler.Options
}

func newCompileCase(t testing.TB, row goldenRow) compileCase {
	t.Helper()
	cfg := network.DefaultConfig(row.c.NumQubits)
	if row.meshW > 0 {
		cfg.MeshW, cfg.MeshH = row.meshW, row.meshH
	}
	topo, err := network.NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return compileCase{c: row.c, mapping: row.mapping, topo: topo, opt: compiler.DefaultOptions(topo.Root, topo.N)}
}

func (cc compileCase) compile() (*compiler.Compiled, error) {
	return compiler.NewPipeline().Run(&compiler.State{Circuit: cc.c, Mapping: cc.mapping, Topo: cc.topo, Windows: cc.topo, Opt: cc.opt})
}

// compileRows are the six cold_compile shapes and qft_n30 at the paper's
// size.
func compileRows(t testing.TB) []goldenRow {
	var rows []goldenRow
	for _, n := range []int{16, 24, 32} {
		rows = append(rows, goldenRow{name: fmt.Sprintf("cold_bv_n%d", n), c: coldBV(n)})
	}
	for _, n := range []int{8, 11, 14} {
		rows = append(rows, goldenRow{name: fmt.Sprintf("cold_qft_n%d", n), c: coldQFT(n)})
	}
	return append(rows, benchRow(t, "qft_n30", 1))
}

// TestCompileAllocations holds one compile of each row to the allocations
// it was measured to make. Every one of them is per compile or per doubling
// of a compile-wide buffer — the streams, their arenas, bookings and slide
// buffers (cut from one allocation each), the codeword index and tables,
// one instruction array for all programs, and the bit bookkeeping — so a
// representation that gave units their own instruction slices again would
// cost at least one more per op.
func TestCompileAllocations(t *testing.T) {
	ceiling := map[string]float64{
		"cold_bv_n16":  44,
		"cold_bv_n24":  53,
		"cold_bv_n32":  62,
		"cold_qft_n8":  30,
		"cold_qft_n11": 31,
		"cold_qft_n14": 33,
		"qft_n30/1":    34,
	}
	for _, row := range compileRows(t) {
		cc := newCompileCase(t, row)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := cc.compile(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per compile", row.name, allocs)
		if allocs > ceiling[row.name] {
			t.Errorf("%s: a compile allocates %.0f times, want at most %.0f", row.name, allocs, ceiling[row.name])
		}
	}
}

// BenchmarkCompile reports time, bytes and allocations per compile of each
// row, and of qft_n300 at the paper's size.
func BenchmarkCompile(b *testing.B) {
	run := func(b *testing.B, row goldenRow) {
		cc := newCompileCase(b, row)
		b.ReportAllocs()
		for b.Loop() {
			if _, err := cc.compile(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, row := range compileRows(b) {
		b.Run(row.name, func(b *testing.B) { run(b, row) })
	}
	// Built only when it runs: its 2.3 M ops would otherwise sit in the
	// heap every smaller case's collections scan.
	b.Run("qft_n300/1", func(b *testing.B) { run(b, benchRow(b, "qft_n300", 1)) })
}

// BenchmarkBindParams times the two ways to serve one point of an angle
// sweep on vqe_n12x2 and qft_sweep_n16: compile/ binds the circuit and
// compiles it from scratch, bind/ patches the tables of one structural
// compile. Their ratio is what binding saves per point; it is informational,
// and TestBindParamsAllocations bounds the bind side in tier-1.
func BenchmarkBindParams(b *testing.B) {
	for _, tc := range []struct {
		name    string
		c       *circuit.Circuit
		binding map[string]float64
	}{
		{"vqe_n12x2", workloads.VQEAnsatz(12, 2), workloads.VQEAnsatzPoint(12, 2, 3)},
		{"qft_sweep_n16", workloads.QFTSweep(16), workloads.QFTSweepPoint(16, 3)},
	} {
		cc := newCompileCase(b, goldenRow{c: tc.c})
		b.Run("compile/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bound, err := tc.c.Bind(tc.binding)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := (compileCase{c: bound, topo: cc.topo, opt: cc.opt}).compile(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("bind/"+tc.name, func(b *testing.B) {
			skel, err := cc.compile()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := skel.BindParams(tc.binding); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
