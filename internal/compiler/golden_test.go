package compiler_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/isa"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/workloads"
)

// This file freezes what the compiler emits. Each line of
// testdata/compile.golden is one cell — a corpus row compiled on one
// topology under one schedule policy, with or without the collective
// feed-forward lowering — and carries the SHA-256 of everything the
// artifact holds: the encoded program bytes, codeword tables, bit owners,
// MemBytes, Stats, ParamSlots, MeasBits, PublicBits and Mapping. It
// compiles through machine.CompileUncached, the exported entry every
// serving path takes, so it runs unchanged at an older commit: copy it
// there and run `go test ./internal/compiler -run TestCompileGolden
// -update-compile` to regenerate the file. The file in the tree came from
// commit 5e0b11a, the last one before the compiler's representation was
// rewritten; it is not edited to make a change pass.

var updateCompile = flag.Bool("update-compile", false, "rewrite testdata/compile.golden from this tree; run it at the commit whose output is to be frozen")

const compileGolden = "testdata/compile.golden"

// goldenRow is one corpus circuit with the machine shape it compiles for.
type goldenRow struct {
	name         string
	c            *circuit.Circuit
	mapping      []int
	meshW, meshH int // 0 = the default near-square mesh
	chips        int
	placement    string
}

// feedForward reports whether the row's lowered program has conditioned
// commits, the ones the collective lowering changes: the circuit's own, or
// the teleport corrections a multi-chip expansion adds.
func (r goldenRow) feedForward() bool {
	if r.chips > 1 {
		return true
	}
	for _, op := range r.c.Ops {
		if op.Cond != nil {
			return true
		}
	}
	return false
}

// coldBV and coldQFT are the cold_compile benchmark's two shapes: a dynamic
// Bernstein–Vazirani circuit and a dynamic QFT behind a leading rotation
// (the per-job angle that makes every artifact key distinct).
func coldBV(n int) *circuit.Circuit {
	c, err := workloads.Dynamic(workloads.BV(n, workloads.AlternatingSecret))
	if err != nil {
		panic(err)
	}
	return c
}

func coldQFT(n int) *circuit.Circuit {
	q := workloads.QFT(n)
	c, err := workloads.Dynamic(circuit.New(q.NumQubits).RZGate(0, 1e-3+float64(n)*1e-6).Append(q))
	if err != nil {
		panic(err)
	}
	return c
}

func benchRow(t testing.TB, name string, div int) goldenRow {
	b, err := workloads.BuildScaled(name, div)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRow{name: fmt.Sprintf("%s/%d", name, div), c: b.Circuit, mapping: b.Mapping, meshW: b.MeshW, meshH: b.MeshH}
}

// goldenCorpus is the Fig. 15 suite at a sixteenth of its size, the
// cold_compile shapes, and the rows the serving benchmarks compile.
func goldenCorpus(t testing.TB) []goldenRow {
	var rows []goldenRow
	for _, name := range workloads.Fig15Names() {
		rows = append(rows, benchRow(t, name, 16))
	}
	for _, n := range []int{16, 24, 32} {
		rows = append(rows, goldenRow{name: fmt.Sprintf("cold_bv_n%d", n), c: coldBV(n)})
	}
	for _, n := range []int{8, 11, 14} {
		rows = append(rows, goldenRow{name: fmt.Sprintf("cold_qft_n%d", n), c: coldQFT(n)})
	}
	rows = append(rows, benchRow(t, "bv_n400", 8), benchRow(t, "qft_n30", 1))
	rows = append(rows, goldenRow{name: "ghz_n128", c: workloads.GHZ(128)})
	dvqe := benchRow(t, "dvqe", 1)
	dvqe.chips, dvqe.placement = 2, "interaction"
	rows = append(rows, dvqe)
	rows = append(rows, goldenRow{name: "qft_sweep_n8", c: workloads.QFTSweep(8)})
	return rows
}

// goldenCell is one compile of a row.
type goldenCell struct {
	row        goldenRow
	topo       network.TopologyKind
	schedule   string
	collective string
}

func (g goldenCell) String() string {
	coll := g.collective
	if coll == "" {
		coll = "-"
	}
	return fmt.Sprintf("%s %s %s %s", g.row.name, g.topo, g.schedule, coll)
}

func goldenCells(t testing.TB) []goldenCell {
	var cells []goldenCell
	for _, row := range goldenCorpus(t) {
		colls := []string{""}
		if row.feedForward() {
			colls = append(colls, "auto")
		}
		for _, topo := range []network.TopologyKind{network.TopoMesh, network.TopoTorus, network.TopoTree} {
			for _, sched := range []string{"fixed", "padded"} {
				for _, coll := range colls {
					cells = append(cells, goldenCell{row: row, topo: topo, schedule: sched, collective: coll})
				}
			}
		}
	}
	return cells
}

func (g goldenCell) compile() (*compiler.Compiled, error) {
	cfg := machine.DefaultConfig(g.row.c.NumQubits)
	cfg.Net.MeshW, cfg.Net.MeshH = g.row.meshW, g.row.meshH
	cfg.Net.Topology = g.topo
	cfg.Schedule = g.schedule
	cfg.Collective = g.collective
	cfg.Chips = g.row.chips
	cfg.Placement = g.row.placement
	return machine.CompileUncached(g.row.c, g.row.mapping, cfg)
}

// digestArtifact hashes a canonical rendering of every field of the
// artifact. Slices render nil apart from empty: the store round trip and
// the restart-warm contract both distinguish them.
func digestArtifact(cp *compiler.Compiled) (string, error) {
	h := sha256.New()
	ints := func(name string, v []int) {
		if v == nil {
			fmt.Fprintf(h, "%s nil\n", name)
			return
		}
		fmt.Fprintf(h, "%s %d %v\n", name, len(v), v)
	}
	fmt.Fprintf(h, "programs %d\n", len(cp.Programs))
	for i, p := range cp.Programs {
		b, err := isa.EncodeProgram(p)
		if err != nil {
			return "", fmt.Errorf("program %d: %w", i, err)
		}
		fmt.Fprintf(h, "program %d %d symbols %d\n", i, len(b), len(p.Symbols))
		h.Write(b)
	}
	fmt.Fprintf(h, "tables %d\n", len(cp.Tables))
	for i, tbl := range cp.Tables {
		fmt.Fprintf(h, "table %d %d\n", i, len(tbl))
		for _, e := range tbl {
			fmt.Fprintf(h, "%d %d %x %d %d %d %q\n", e.Role, e.Kind, math.Float64bits(e.Param), e.Qubit, e.Partner, e.Channel, e.Sym)
		}
	}
	ints("bitowner", cp.BitOwner)
	s := cp.Stats
	fmt.Fprintf(h, "mem %d stats %d %d %d %d %d %d %d\n", cp.MemBytes,
		s.Instructions, s.NearbySyncs, s.RegionSyncs, s.Sends, s.Recvs, s.TableEntries, s.RemoteGates)
	if cp.ParamSlots == nil {
		fmt.Fprintf(h, "slots nil\n")
	} else {
		fmt.Fprintf(h, "slots %d\n", len(cp.ParamSlots))
		for _, ps := range cp.ParamSlots {
			fmt.Fprintf(h, "%d %d %q\n", ps.Ctrl, ps.Index, ps.Sym)
		}
	}
	writeMeasBits(h, cp.MeasBits)
	fmt.Fprintf(h, "public %d\n", cp.PublicBits)
	ints("mapping", cp.Mapping)
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func writeMeasBits(h hash.Hash, mb [][]int) {
	if mb == nil {
		fmt.Fprintf(h, "measbits nil\n")
		return
	}
	fmt.Fprintf(h, "measbits %d\n", len(mb))
	for _, bits := range mb {
		if bits == nil {
			fmt.Fprintf(h, "nil\n")
			continue
		}
		fmt.Fprintf(h, "%d %v\n", len(bits), bits)
	}
}

// renderGolden compiles every cell: one line each, the cell, its
// instruction count and its digest.
func renderGolden(t *testing.T) string {
	var b strings.Builder
	for _, cell := range goldenCells(t) {
		cp, err := cell.compile()
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		d, err := digestArtifact(cp)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		fmt.Fprintf(&b, "%s instrs=%d %s\n", cell, cp.Stats.Instructions, d)
	}
	return b.String()
}

// TestCompileGolden holds every cell's artifact to the frozen digest.
func TestCompileGolden(t *testing.T) {
	got := renderGolden(t)
	if *updateCompile {
		if err := os.WriteFile(compileGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(compileGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d cells, golden has %d", len(lines), len(want))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			bad++
			t.Errorf("cell %d differs:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cells differ from %s", bad, len(lines), compileGolden)
	}
}
