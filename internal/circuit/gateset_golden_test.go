package circuit_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"dhisq/internal/baseline"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/sim"
)

// This file freezes what the gate set means everywhere it is spelled: names,
// predicates, QASM in and out, durations, and the action of every kind on
// both simulators through Circuit.Run* and through the chip backends. It
// uses only exported names that predate the gate table (nothing of the
// table itself), so it compiles unchanged at an older commit: copy it there
// and run `go test ./internal/circuit -run TestGateSetGolden -update-gateset`
// to regenerate testdata/gateset.golden. The file in the tree came from
// commit 483f934, the last one with the per-file switches; it is not edited
// to make a change pass.

var updateGateSet = flag.Bool("update-gateset", false, "rewrite testdata/gateset.golden from this tree; run it at the commit whose behaviour is to be frozen")

const gateSetGolden = "testdata/gateset.golden"

// goldenSeed seeds every RNG the golden run draws from.
const goldenSeed = 24

// goldenOp is the op of kind k the golden drives: one-qubit kinds on qubit
// 2, two-qubit kinds (and the barrier) on (1, 2), angles 0.625, a 7-cycle
// delay, the measurement into bit 0.
func goldenOp(k circuit.Kind) circuit.Op {
	op := circuit.Op{Kind: k, Qubits: []int{2}, CBit: -1}
	switch {
	case k.IsTwoQubit() || k == circuit.Barrier:
		op.Qubits = []int{1, 2}
	case k == circuit.Measure:
		op.CBit = 0
	case k == circuit.Delay:
		op.Param = 7
	}
	switch k {
	case circuit.RX, circuit.RY, circuit.RZ, circuit.CPhase:
		op.Param = 0.625
	}
	return op
}

func oneOp(op circuit.Op) *circuit.Circuit {
	return &circuit.Circuit{NumQubits: 4, NumBits: 1, Ops: []circuit.Op{op}}
}

func gate(k circuit.Kind, param float64, qubits ...int) circuit.Op {
	return circuit.Op{Kind: k, Qubits: qubits, Param: param, CBit: -1}
}

// densePrep and cliffordPrep leave the four qubits in a fixed entangled
// state with no symmetry a gate could hide behind.
var densePrep = []circuit.Op{
	gate(circuit.H, 0, 0), gate(circuit.H, 0, 1), gate(circuit.H, 0, 2), gate(circuit.H, 0, 3),
	gate(circuit.T, 0, 0), gate(circuit.RX, 0.3, 1), gate(circuit.RY, 1.1, 2), gate(circuit.RZ, -0.7, 3),
	gate(circuit.CNOT, 0, 0, 1), gate(circuit.CZ, 0, 1, 2), gate(circuit.CPhase, 0.9, 2, 3),
	gate(circuit.SWAP, 0, 0, 3), gate(circuit.S, 0, 1), gate(circuit.Tdg, 0, 2), gate(circuit.Y, 0, 3),
	gate(circuit.CNOT, 0, 3, 2),
}

var cliffordPrep = []circuit.Op{
	gate(circuit.H, 0, 0), gate(circuit.H, 0, 1), gate(circuit.H, 0, 2), gate(circuit.H, 0, 3),
	gate(circuit.S, 0, 0), gate(circuit.CNOT, 0, 0, 1), gate(circuit.CZ, 0, 1, 2), gate(circuit.Sdg, 0, 3),
	gate(circuit.CNOT, 0, 2, 3), gate(circuit.H, 0, 1), gate(circuit.X, 0, 2), gate(circuit.Y, 0, 0),
	gate(circuit.SWAP, 0, 0, 3), gate(circuit.Z, 0, 1), gate(circuit.CNOT, 0, 3, 1),
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

type amplitudes interface{ Amplitude(int) complex128 }

func denseDigest(s amplitudes) string {
	var buf [16 * 16]byte
	for i := 0; i < 16; i++ {
		a := s.Amplitude(i)
		binary.LittleEndian.PutUint64(buf[16*i:], math.Float64bits(real(a)))
		binary.LittleEndian.PutUint64(buf[16*i+8:], math.Float64bits(imag(a)))
	}
	return digest(string(buf[:]))
}

type stabilizers interface{ StabilizerString(int) string }

func tableauDigest(t stabilizers) string {
	rows := make([]string, 4)
	for k := range rows {
		rows[k] = t.StabilizerString(k)
	}
	return strings.Join(rows, ",")
}

// tableEntries are the codeword-table rows the compiler's Lower pass makes
// for op: none for a barrier (it lowers to syncs), both halves of a
// two-qubit gate.
func tableEntries(op circuit.Op) []chip.TableEntry {
	switch {
	case op.Kind == circuit.Barrier:
		return nil
	case op.Kind == circuit.Measure:
		return []chip.TableEntry{{Role: chip.RoleMeasure, Kind: circuit.Measure, Qubit: op.Qubits[0]}}
	case op.Kind.IsTwoQubit():
		a, b := op.Qubits[0], op.Qubits[1]
		return []chip.TableEntry{
			{Role: chip.RoleControl, Kind: op.Kind, Param: op.Param, Qubit: a, Partner: b},
			{Role: chip.RoleParticipant, Kind: op.Kind, Param: op.Param, Qubit: b, Partner: a},
		}
	}
	return []chip.TableEntry{{Role: chip.RoleSingle, Kind: op.Kind, Param: op.Param, Qubit: op.Qubits[0]}}
}

// onChip commits ops in order through a chip.Model over backend, the way a
// controller would, and returns the last delivered measurement outcome (-1
// if none) or the text of a backend panic.
func onChip(backend chip.Backend, eprLatency sim.Time, ops []circuit.Op) (m *chip.Model, out int, panicked string) {
	m = chip.New(sim.NewEngine(), backend, circuit.PaperDurations(), 80)
	m.EPRLatency = eprLatency
	out = -1
	m.SetDelivery(func(_, _ int, v uint32, _ sim.Time) { out = int(v) })
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(" panic: ", r)
		}
	}()
	var table []chip.TableEntry
	for i, op := range ops {
		for _, e := range tableEntries(op) {
			table = append(table, e)
			m.SetTable(0, table)
			m.Commit(0, e.Port(), uint32(len(table)), sim.Time(1000*i))
		}
	}
	return m, out, ""
}

// chipCycles reads the occupancy the chip charges op off the overlap a
// second commit at the same cycle reports.
func chipCycles(op circuit.Op, eprLatency sim.Time) string {
	if len(tableEntries(op)) == 0 {
		return "-"
	}
	m := chip.New(sim.NewEngine(), chip.NewSeeded(goldenSeed), circuit.PaperDurations(), 80)
	m.EPRLatency = eprLatency
	table := tableEntries(op)
	m.SetTable(0, table)
	for round := 0; round < 2; round++ {
		for i, e := range table {
			m.Commit(0, e.Port(), uint32(i+1), 0)
		}
	}
	if len(m.OverlapInfo) == 0 {
		return "0"
	}
	return fmt.Sprint(m.OverlapInfo[0].BusyUntil)
}

type fixedWindows struct{}

func (fixedWindows) NearbyWindow(int, int) sim.Time { return 2 }
func (fixedWindows) RegionWindow(int, int) sim.Time { return 10 }

// compiled lowers c for four controllers and returns the program of the
// controller that owns qubit 2 on one line, with a digest of every program
// and table.
func compiled(c *circuit.Circuit, eprLatency sim.Time) string {
	opt := compiler.DefaultOptions(4, 4)
	opt.InitialBarrier = false
	opt.EPRLatency = eprLatency
	cp, err := compiler.Compile(c, nil, fixedWindows{}, opt)
	if err != nil {
		return "refused: " + err.Error()
	}
	var all []string
	for i, p := range cp.Programs {
		all = append(all, p.Text(), fmt.Sprintf("%+v", cp.Tables[i]))
	}
	line := strings.ReplaceAll(strings.TrimSpace(cp.Programs[2].Text()), "\n", "; ")
	return fmt.Sprintf("%q all=%s", line, digest(all...))
}

// qasmLines is WriteQASM's spelling of c's ops (the header and register
// declarations dropped), or its refusal.
func qasmLines(c *circuit.Circuit) string {
	src, err := circuit.WriteQASM(c)
	if err != nil {
		return "refused: " + err.Error()
	}
	var ops []string
	for _, line := range strings.Split(strings.TrimSpace(src), "\n") {
		switch {
		case strings.HasPrefix(line, "OPENQASM"), strings.HasPrefix(line, "include"),
			strings.HasPrefix(line, "qreg"), strings.HasPrefix(line, "creg"):
		default:
			ops = append(ops, line)
		}
	}
	return fmt.Sprintf("%q", ops)
}

// mnemonicCandidates is every spelling the scanner has ever accepted plus
// near misses; the golden records which kind each parses to, in any operand
// shape.
var mnemonicCandidates = []string{
	"h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "cp", "cu1", "cx", "CX", "cz", "swap",
	"measure", "barrier", "delay", "reset", "epr", "invalid",
	"H", "X", "Cx", "cX", "cnot", "CNOT", "cphase", "u1", "p", "id", "ccx", "Reset", "Measure", "SWAP", "sdag", "rzz",
}

func parsedKinds(name string) map[circuit.Kind]bool {
	kinds := map[circuit.Kind]bool{}
	for _, tail := range []string{
		" q[0];", "(0.5) q[0];", " q[0],q[1];", "(0.5) q[0],q[1];", " q[0] -> c[0];",
	} {
		c, err := circuit.ParseQASM("qreg q[2];\ncreg c[1];\n" + name + tail + "\n")
		if err == nil && len(c.Ops) == 1 {
			kinds[c.Ops[0].Kind] = true
		}
	}
	return kinds
}

func renderGateSet() string {
	var b strings.Builder
	mnemonics := map[circuit.Kind][]string{}
	var unknown []string
	for _, name := range mnemonicCandidates {
		kinds := parsedKinds(name)
		if len(kinds) == 0 {
			unknown = append(unknown, name)
		}
		for k := range kinds {
			mnemonics[k] = append(mnemonics[k], name)
		}
	}
	for k := circuit.KindInvalid; k <= circuit.EPR+1; k++ {
		fmt.Fprintf(&b, "kind %d %s\n", k, k)
		fmt.Fprintf(&b, "  two-qubit %v clifford %v\n", k.IsTwoQubit(), k.IsClifford())
		if k == circuit.KindInvalid || k > circuit.EPR {
			continue
		}
		op := goldenOp(k)

		sym := op
		sym.Sym, sym.Param = "theta", 0
		symOK := oneOp(sym).Validate() == nil
		fmt.Fprintf(&b, "  symbolic-ok %v\n", symOK)

		fmt.Fprintf(&b, "  string %q\n", op.String())
		fmt.Fprintf(&b, "  qasm %s\n", qasmLines(oneOp(op)))
		if symOK {
			fmt.Fprintf(&b, "  qasm symbolic %s\n", qasmLines(oneOp(sym)))
		}
		if k == circuit.Barrier {
			fmt.Fprintf(&b, "  qasm global %s\n", qasmLines(oneOp(gate(circuit.Barrier, 0))))
		}
		cond := op
		cond.Cond = &circuit.Condition{Bits: []int{0}, Parity: 1}
		fmt.Fprintf(&b, "  qasm conditioned %s\n", qasmLines(oneOp(cond)))
		sort.Strings(mnemonics[k])
		fmt.Fprintf(&b, "  mnemonics %q\n", mnemonics[k])

		// Durations: the four places that charge an op its cycles.
		d := circuit.PaperDurations()
		lock, err := baseline.Run(oneOp(op), baseline.DefaultConfig(chip.NewSeeded(goldenSeed)))
		lockstep := fmt.Sprint(lock.Makespan)
		if err != nil {
			lockstep = "refused: " + err.Error()
		}
		fmt.Fprintf(&b, "  cycles depth %d chip %s chip(epr=40) %s lockstep %s\n",
			oneOp(op).Depth(d), chipCycles(op, 0), chipCycles(op, 40), lockstep)
		fmt.Fprintf(&b, "  compiled %s\n", compiled(oneOp(op), 0))
		fmt.Fprintf(&b, "  compiled(epr=40) %s\n", compiled(oneOp(op), 40))
		fed := &circuit.Circuit{NumQubits: 4, NumBits: 1, Ops: []circuit.Op{
			{Kind: circuit.Measure, Qubits: []int{0}, CBit: 0}, cond,
		}}
		fmt.Fprintf(&b, "  compiled conditioned %s\n", compiled(fed, 0))

		// Action on the dense state.
		prog := append(append([]circuit.Op(nil), densePrep...), op)
		run := &circuit.Circuit{NumQubits: 4, NumBits: 1, Ops: prog}
		if st, bits, err := run.RunStateVector(rand.New(rand.NewSource(goldenSeed))); err != nil {
			fmt.Fprintf(&b, "  dense run refused: %v\n", err)
		} else {
			fmt.Fprintf(&b, "  dense run %s bits %v\n", denseDigest(st), bits)
		}
		for _, comm := range []int{0, 2} {
			sv := chip.NewStateVec(4, goldenSeed)
			sv.SetCommFrom(comm)
			_, out, panicked := onChip(sv, 0, prog)
			fmt.Fprintf(&b, "  dense chip(comm=%d) %s out %d%s\n", comm, denseDigest(sv.State), out, panicked)
		}

		// Action on the tableau.
		prog = append(append([]circuit.Op(nil), cliffordPrep...), op)
		run = &circuit.Circuit{NumQubits: 4, NumBits: 1, Ops: prog}
		if tb, bits, err := run.RunStabilizer(rand.New(rand.NewSource(goldenSeed))); err != nil {
			fmt.Fprintf(&b, "  tableau run refused: %v\n", err)
		} else {
			fmt.Fprintf(&b, "  tableau run %s bits %v\n", tableauDigest(tb), bits)
		}
		for _, comm := range []int{0, 2} {
			sb := chip.NewStabilizer(4, goldenSeed)
			sb.SetCommFrom(comm)
			_, out, panicked := onChip(sb, 0, prog)
			fmt.Fprintf(&b, "  tableau chip(comm=%d) %s out %d%s\n", comm, tableauDigest(sb.Tab), out, panicked)
		}
	}
	fmt.Fprintf(&b, "no kind %q\n", unknown)
	return b.String()
}

// TestGateSetGolden holds the gate set, everywhere it is consulted, to the
// rendering taken from the per-file switches.
func TestGateSetGolden(t *testing.T) {
	got := renderGateSet()
	if *updateGateSet {
		if err := os.WriteFile(gateSetGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(gateSetGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", gateSetGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", gateSetGolden, len(gl), len(wl))
}
