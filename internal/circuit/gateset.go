package circuit

import (
	"math/rand"

	"dhisq/internal/quantum"
	"dhisq/internal/stabilizer"
)

// The gate set is declared here and nowhere else. gateSet has one row per
// Kind; Kind.String and the predicates, checkOp's arity and parameter rules,
// WriteQASM's spelling, the scanner's mnemonic index, Durations.Of and the
// executor (Exec) all read it. A new gate is a Kind constant and a row, a
// changed duration class one cell, a new substrate one column plus a
// Substrate constructor that reads it.

// paramKind says what an op's Param means.
type paramKind uint8

const (
	noParam paramKind = iota // Param must be zero
	angle                    // a rotation angle in radians; may be symbolic (it never affects placement, guards, scheduling or sync arithmetic: the bind contract, DESIGN.md §8)
	cycles                   // a non-negative whole number of cycles
)

// durClass says which of Durations' times an op occupies its qubits for.
type durClass uint8

const (
	durOneQubit durClass = iota
	durTwoQubit
	durMeasure
	durParam // the op's own Param
	durEPR   // the EPR generation latency, TwoQubit when none is configured
)

// variadic is the operand count of a kind that takes any number of qubits.
const variadic = -1

// action is one substrate's column: how a kind's unitary acts on an S. Nil
// means the substrate cannot apply the kind.
type action[S any] func(s S, param float64, a, b int)

// g1, g1p, g2 and g2p lift the simulators' method expressions — one or two
// qubits, with or without a parameter — to the column type.
func g1[S any](f func(S, int)) action[S] {
	return func(s S, _ float64, a, _ int) { f(s, a) }
}
func g1p[S any](f func(S, int, float64)) action[S] {
	return func(s S, p float64, a, _ int) { f(s, a, p) }
}
func g2[S any](f func(S, int, int)) action[S] {
	return func(s S, _ float64, a, b int) { f(s, a, b) }
}
func g2p[S any](f func(S, int, int, float64)) action[S] {
	return func(s S, p float64, a, b int) { f(s, a, b, p) }
}

// idle is the action of a kind that only takes time.
func idle[S any](S, float64, int, int) {}

// act applies f to s if the column has an entry, and reports whether it has.
func act[S any](f action[S], s S, param float64, a, b int) bool {
	if f != nil {
		f(s, param, a, b)
	}
	return f != nil
}

type gateRow struct {
	name     string   // Kind.String, and the mnemonic WriteQASM writes
	aliases  []string // further mnemonics ParseQASM accepts
	noQASM   bool     // OpenQASM 2.0 cannot spell it
	operands int      // 1, 2 or variadic
	param    paramKind
	clifford bool
	dur      durClass
	// Measure, Reset and EPR have no column entry: Exec composes them from
	// the substrate's measurement and the X, H and CNOT rows.
	dense action[*quantum.State]
	tab   action[*stabilizer.Tableau]
}

type sv = *quantum.State
type tb = *stabilizer.Tableau

var gateSet = [...]gateRow{
	KindInvalid: {name: "invalid", noQASM: true, operands: 1},

	H:   {name: "h", operands: 1, clifford: true, dense: g1(sv.H), tab: g1(tb.H)},
	X:   {name: "x", operands: 1, clifford: true, dense: g1(sv.X), tab: g1(tb.X)},
	Y:   {name: "y", operands: 1, clifford: true, dense: g1(sv.Y), tab: g1(tb.Y)},
	Z:   {name: "z", operands: 1, clifford: true, dense: g1(sv.Z), tab: g1(tb.Z)},
	S:   {name: "s", operands: 1, clifford: true, dense: g1(sv.S), tab: g1(tb.S)},
	Sdg: {name: "sdg", operands: 1, clifford: true, dense: g1(sv.Sdg), tab: g1(tb.Sdg)},
	T:   {name: "t", operands: 1, dense: g1(sv.T)},
	Tdg: {name: "tdg", operands: 1, dense: g1(sv.Tdg)},
	RX:  {name: "rx", operands: 1, param: angle, dense: g1p(sv.RX)},
	RY:  {name: "ry", operands: 1, param: angle, dense: g1p(sv.RY)},
	RZ:  {name: "rz", operands: 1, param: angle, dense: g1p(sv.RZ)},

	CPhase: {name: "cp", aliases: []string{"cu1"}, operands: 2, param: angle, dur: durTwoQubit, dense: g2p(sv.CPhase)},
	CNOT:   {name: "cx", aliases: []string{"CX"}, operands: 2, clifford: true, dur: durTwoQubit, dense: g2(sv.CNOT), tab: g2(tb.CNOT)},
	CZ:     {name: "cz", operands: 2, clifford: true, dur: durTwoQubit, dense: g2(sv.CZ), tab: g2(tb.CZ)},
	SWAP:   {name: "swap", operands: 2, clifford: true, dur: durTwoQubit, dense: g2(sv.SWAP), tab: g2(tb.SWAP)},

	Measure: {name: "measure", operands: 1, clifford: true, dur: durMeasure},
	Barrier: {name: "barrier", operands: variadic, clifford: true, dense: idle[sv], tab: idle[tb]},
	Delay:   {name: "delay", noQASM: true, operands: 1, param: cycles, clifford: true, dur: durParam, dense: idle[sv], tab: idle[tb]},
	Reset:   {name: "reset", operands: 1, clifford: true},
	EPR:     {name: "epr", noQASM: true, operands: 2, clifford: true, dur: durEPR},
}

// row returns k's table row; a kind outside the table reads as KindInvalid.
func (k Kind) row() *gateRow {
	if int(k) < len(gateSet) {
		return &gateSet[k]
	}
	return &gateSet[KindInvalid]
}

// mnemonics indexes every gate spelling ParseQASM accepts. The barrier is
// not in it: it is a statement keyword with an operand grammar of its own.
var mnemonics = map[string]Kind{}

func init() {
	for k, r := range gateSet {
		if r.noQASM || r.operands == variadic {
			continue
		}
		mnemonics[r.name] = Kind(k)
		for _, a := range r.aliases {
			mnemonics[a] = Kind(k)
		}
	}
}

// Substrate is a simulator state the gate set can drive: its column of the
// table and its Z-basis measurement. Dense and Tableau build the two.
type Substrate struct {
	// unitary applies k's column entry, reporting whether there is one.
	unitary func(k Kind, param float64, a, b int) bool
	measure func(q int, rng *rand.Rand) int
}

// Dense is the state-vector substrate over s.
func Dense(s *quantum.State) Substrate {
	return Substrate{func(k Kind, p float64, a, b int) bool { return act(k.row().dense, s, p, a, b) }, s.Measure}
}

// Tableau is the stabilizer substrate over t.
func Tableau(t *stabilizer.Tableau) Substrate {
	return Substrate{func(k Kind, p float64, a, b int) bool { return act(k.row().tab, t, p, a, b) }, t.MeasureZ}
}

// Streams chooses the random stream a qubit's measurements draw from: one
// stream for every qubit in Circuit.Run*, separate data and herald streams
// behind a chip backend's comm boundary.
type Streams interface {
	Stream(q int) *rand.Rand
}

// Exec applies one op — kind k with its parameter on qubit a, or on (a, b)
// for a two-qubit kind — to s, and returns a measurement's outcome (0 for
// every other kind). ok is false, with s untouched, when the substrate
// cannot apply k. It is the one place Measure, Reset and EPR are spelled
// out; every simulation path — Circuit.RunStateVector and RunStabilizer, the
// chip backends under the control stack, the lock-step baseline — ends here.
func Exec(s Substrate, rng Streams, k Kind, param float64, a, b int) (out int, ok bool) {
	switch k {
	case Measure:
		return s.measure(a, rng.Stream(a)), true
	case Reset:
		reset(s, rng, a)
	case EPR:
		// Both qubits are discarded and re-prepared as (|00>+|11>)/sqrt(2).
		reset(s, rng, a)
		reset(s, rng, b)
		s.unitary(H, 0, a, 0)
		s.unitary(CNOT, 0, a, b)
	default:
		return 0, s.unitary(k, param, a, b)
	}
	return 0, true
}

// reset returns q to |0>: measure, then X on a 1.
func reset(s Substrate, rng Streams, q int) {
	if s.measure(q, rng.Stream(q)) == 1 {
		s.unitary(X, 0, q, 0)
	}
}
