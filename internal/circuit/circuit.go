// Package circuit defines the dynamic-circuit intermediate representation
// consumed by the Distributed-HISQ software stack (the "circuit-layer SISQ"
// of Fig. 10): gates, measurements into classical bits, and classically
// conditioned operations with parity conditions — the form produced by the
// long-range-CNOT transform of Fig. 14 and required by the logical-T
// workloads of Fig. 2.
package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dhisq/internal/quantum"
	"dhisq/internal/stabilizer"
)

// Kind enumerates operations.
type Kind uint8

const (
	KindInvalid Kind = iota
	H
	X
	Y
	Z
	S
	Sdg
	T
	Tdg
	RX
	RY
	RZ
	CPhase // controlled phase (QFT primitive); Param is the angle
	CNOT
	CZ
	SWAP
	Measure // Qubits[0] measured into CBit
	Barrier // scheduling barrier across Qubits (empty = all)
	Delay   // hold Qubits[0] idle for Param cycles (decoder latency modeling, §6.4.2)
	Reset   // unconditional reset of Qubits[0] to |0> (reset drive pulse)
	// EPR prepares the maximally entangled pair (|00>+|11>)/sqrt(2) on its
	// two qubits, discarding their prior state. It is the inter-chip
	// entanglement resource of the multi-chip model: the expansion emits it
	// on communication qubits of different chips, and the chip model charges
	// it the configured generation latency with a heralding exchange over
	// the fabric (DESIGN.md §12). Exec spells out what it does to the state.
	EPR
)

func (k Kind) String() string {
	if int(k) < len(gateSet) {
		return gateSet[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsTwoQubit reports whether the kind acts on exactly two qubits.
func (k Kind) IsTwoQubit() bool { return k.row().operands == 2 }

// IsClifford reports whether the operation is simulable on a stabilizer
// tableau.
func (k Kind) IsClifford() bool { return k.row().clifford }

// Condition guards an operation on classical bits: the op executes iff the
// XOR (parity) of the listed bits equals Parity. Single-bit feedback is the
// one-element case; the long-range CNOT corrections of Fig. 14 need the
// multi-bit parity form (the "XOR" box in the figure).
type Condition struct {
	Bits   []int
	Parity int // 0 or 1
}

// Op is one circuit operation.
//
// Sym names a symbolic parameter for rotation ops (RX/RY/RZ/CPhase): the
// angle is a free variable resolved by Bind rather than a literal. Sym
// survives binding — a bound op keeps its symbol name with Bound set and
// Param holding the bound value — so the compiler's codeword interning
// treats two different symbols as distinct table entries even when they
// happen to bind to the same angle, which is what makes BindParams on a
// structural artifact byte-identical to a fresh compile of the bound
// circuit (DESIGN.md §8).
type Op struct {
	Kind   Kind
	Qubits []int
	Param  float64
	CBit   int // Measure destination; -1 otherwise
	Cond   *Condition
	Sym    string // symbolic parameter name ("" = concrete Param)
	Bound  bool   // Sym has been bound (Param holds the value)
}

// Symbolic reports whether the op carries an unbound symbolic parameter.
func (o Op) Symbolic() bool { return o.Sym != "" && !o.Bound }

func (o Op) String() string {
	s := o.Kind.String()
	if o.Sym != "" {
		s += "(" + o.Sym + ")"
	}
	for _, q := range o.Qubits {
		s += fmt.Sprintf(" q%d", q)
	}
	if o.Kind == Measure {
		s += fmt.Sprintf(" -> c%d", o.CBit)
	}
	if o.Cond != nil {
		s = fmt.Sprintf("if(parity%v==%d) %s", o.Cond.Bits, o.Cond.Parity, s)
	}
	return s
}

// Circuit is a dynamic quantum circuit over NumQubits qubits and NumBits
// classical bits.
type Circuit struct {
	NumQubits int
	NumBits   int
	Ops       []Op
}

// New returns an empty circuit.
func New(qubits int) *Circuit { return &Circuit{NumQubits: qubits} }

func (c *Circuit) add(op Op) *Circuit {
	if op.Kind != Measure {
		op.CBit = -1
	}
	c.Ops = append(c.Ops, op)
	return c
}

// Gate appends an arbitrary unconditioned operation.
func (c *Circuit) Gate(k Kind, qubits ...int) *Circuit {
	return c.add(Op{Kind: k, Qubits: qubits})
}

// H and friends are builder conveniences.
func (c *Circuit) H(q int) *Circuit       { return c.Gate(H, q) }
func (c *Circuit) X(q int) *Circuit       { return c.Gate(X, q) }
func (c *Circuit) Y(q int) *Circuit       { return c.Gate(Y, q) }
func (c *Circuit) Z(q int) *Circuit       { return c.Gate(Z, q) }
func (c *Circuit) S(q int) *Circuit       { return c.Gate(S, q) }
func (c *Circuit) Sdg(q int) *Circuit     { return c.Gate(Sdg, q) }
func (c *Circuit) T(q int) *Circuit       { return c.Gate(T, q) }
func (c *Circuit) Tdg(q int) *Circuit     { return c.Gate(Tdg, q) }
func (c *Circuit) CNOT(a, b int) *Circuit { return c.Gate(CNOT, a, b) }
func (c *Circuit) CZ(a, b int) *Circuit   { return c.Gate(CZ, a, b) }
func (c *Circuit) SWAP(a, b int) *Circuit { return c.Gate(SWAP, a, b) }

// RXGate appends a rotation; name avoids clashing with the Kind constants.
func (c *Circuit) RXGate(q int, theta float64) *Circuit {
	return c.add(Op{Kind: RX, Qubits: []int{q}, Param: theta})
}

// RYGate appends an RY rotation.
func (c *Circuit) RYGate(q int, theta float64) *Circuit {
	return c.add(Op{Kind: RY, Qubits: []int{q}, Param: theta})
}

// RZGate appends an RZ rotation.
func (c *Circuit) RZGate(q int, theta float64) *Circuit {
	return c.add(Op{Kind: RZ, Qubits: []int{q}, Param: theta})
}

// CPhaseGate appends a controlled-phase rotation.
func (c *Circuit) CPhaseGate(a, b int, theta float64) *Circuit {
	return c.add(Op{Kind: CPhase, Qubits: []int{a, b}, Param: theta})
}

// RXSym appends an RX rotation by the symbolic parameter sym; the angle is
// supplied later via Bind.
func (c *Circuit) RXSym(q int, sym string) *Circuit {
	return c.add(Op{Kind: RX, Qubits: []int{q}, Sym: sym})
}

// RYSym appends a symbolic RY rotation.
func (c *Circuit) RYSym(q int, sym string) *Circuit {
	return c.add(Op{Kind: RY, Qubits: []int{q}, Sym: sym})
}

// RZSym appends a symbolic RZ rotation.
func (c *Circuit) RZSym(q int, sym string) *Circuit {
	return c.add(Op{Kind: RZ, Qubits: []int{q}, Sym: sym})
}

// CPhaseSym appends a symbolic controlled-phase rotation.
func (c *Circuit) CPhaseSym(a, b int, sym string) *Circuit {
	return c.add(Op{Kind: CPhase, Qubits: []int{a, b}, Sym: sym})
}

// Params returns the sorted set of symbolic parameter names appearing in
// the circuit, bound or not.
func (c *Circuit) Params() []string {
	return c.collectSyms(func(op Op) bool { return op.Sym != "" })
}

// UnboundParams returns the sorted set of symbolic parameters still
// awaiting a Bind. A circuit with unbound parameters is a skeleton: it can
// be compiled structurally (machine.Compile, structural) but not simulated or
// run directly.
func (c *Circuit) UnboundParams() []string {
	return c.collectSyms(Op.Symbolic)
}

func (c *Circuit) collectSyms(match func(Op) bool) []string {
	seen := map[string]bool{}
	var out []string
	for _, op := range c.Ops {
		if match(op) && !seen[op.Sym] {
			seen[op.Sym] = true
			out = append(out, op.Sym)
		}
	}
	sort.Strings(out)
	return out
}

// CanonParam normalizes an angle for fingerprinting and table emission:
// -0.0 becomes +0.0, so the two zero encodings — which compile to
// identical programs — never fingerprint as different circuits.
func CanonParam(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// Bind returns a copy of the circuit with every unbound symbolic parameter
// replaced by its value from vals. All unbound symbols must be supplied and
// every supplied name must appear in the circuit; values must not be NaN.
// Symbols survive binding (with Bound set), so compiling the bound circuit
// interns codeword-table entries exactly as the structural compile of the
// skeleton does — the property the BindParams equivalence proof rests on.
func (c *Circuit) Bind(vals map[string]float64) (*Circuit, error) {
	syms := map[string]bool{}
	for _, op := range c.Ops {
		if op.Sym != "" {
			syms[op.Sym] = true
		}
	}
	for name, v := range vals {
		if !syms[name] {
			return nil, fmt.Errorf("circuit: bind: unknown parameter %q", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("circuit: bind: parameter %q is %v (angles must be finite)", name, v)
		}
	}
	out := &Circuit{NumQubits: c.NumQubits, NumBits: c.NumBits, Ops: make([]Op, len(c.Ops))}
	for i, op := range c.Ops {
		cp := op
		cp.Qubits = append([]int(nil), op.Qubits...)
		if op.Cond != nil {
			cc := *op.Cond
			cc.Bits = append([]int(nil), op.Cond.Bits...)
			cp.Cond = &cc
		}
		if op.Sym != "" {
			if v, ok := vals[op.Sym]; ok {
				cp.Param = CanonParam(v)
				cp.Bound = true
			} else if !op.Bound {
				return nil, fmt.Errorf("circuit: bind: parameter %q left unbound", op.Sym)
			}
		}
		out.Ops[i] = cp
	}
	return out, nil
}

// MeasureInto measures qubit q into classical bit b (allocating bits as
// needed).
func (c *Circuit) MeasureInto(q, b int) *Circuit {
	if b >= c.NumBits {
		c.NumBits = b + 1
	}
	return c.add(Op{Kind: Measure, Qubits: []int{q}, CBit: b})
}

// MeasureNew measures q into a fresh classical bit and returns its index.
func (c *Circuit) MeasureNew(q int) int {
	b := c.NumBits
	c.MeasureInto(q, b)
	return b
}

// CondGate appends an operation conditioned on the parity of classical bits.
func (c *Circuit) CondGate(k Kind, cond Condition, qubits ...int) *Circuit {
	cc := cond
	cc.Bits = append([]int{}, cond.Bits...)
	return c.add(Op{Kind: k, Qubits: qubits, Cond: &cc})
}

// BarrierAll appends a global scheduling barrier.
func (c *Circuit) BarrierAll() *Circuit { return c.add(Op{Kind: Barrier}) }

// DelayGate holds qubit q idle for the given number of cycles (used to model
// decoder latency in the QEC workloads, §6.4.2).
func (c *Circuit) DelayGate(q int, cycles int64) *Circuit {
	return c.add(Op{Kind: Delay, Qubits: []int{q}, Param: float64(cycles)})
}

// ResetGate unconditionally returns qubit q to |0⟩ (a reset drive — the
// hardware alternative to measurement-conditioned X for ancilla recycling).
func (c *Circuit) ResetGate(q int) *Circuit { return c.add(Op{Kind: Reset, Qubits: []int{q}}) }

// Append concatenates another circuit's ops (qubit/bit spaces must already
// agree; use this for composing generated blocks).
func (c *Circuit) Append(o *Circuit) *Circuit {
	if o.NumQubits > c.NumQubits {
		c.NumQubits = o.NumQubits
	}
	if o.NumBits > c.NumBits {
		c.NumBits = o.NumBits
	}
	c.Ops = append(c.Ops, o.Ops...)
	return c
}

// maxDelay is the longest delay one wait renders: the lowering loads the
// cycle count into a 32-bit register, and waitr advances by it unsigned.
const maxDelay = float64(1<<32 - 1)

// Validate checks qubit/bit indices, arities and parameter sanity: NaN
// angles are rejected (they would break codeword-table interning, which
// keys on the parameter), Delay durations must be non-negative integers
// (the lowering converts them with int64(Param) — a fractional or negative
// value would silently compile to a garbage wait), symbolic parameters are
// only legal on rotation ops, and a kind that takes no parameter carries
// none (the fingerprint hashes Param). Circuits returned by ParseQASM have had
// every op checked as it was appended; Validate is for hand-built ones.
func (c *Circuit) Validate() error {
	for i := range c.Ops {
		if err := c.checkOp(i, &c.Ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkOp is Validate's per-op body: op is c.Ops[i], checked against the
// circuit's current qubit and bit counts (ParseQASM calls it as ops arrive).
func (c *Circuit) checkOp(i int, op *Op) error {
	if math.IsNaN(op.Param) || math.IsInf(op.Param, 0) {
		return fmt.Errorf("circuit: op %d (%s): non-finite parameter %v", i, *op, op.Param)
	}
	r := op.Kind.row()
	if op.Sym != "" && r.param != angle {
		return fmt.Errorf("circuit: op %d (%s): symbolic parameter %q on non-rotation op", i, *op, op.Sym)
	}
	switch r.param {
	case noParam:
		if op.Param != 0 {
			return fmt.Errorf("circuit: op %d (%s): parameter %v on an op that takes none", i, *op, op.Param)
		}
	case cycles:
		switch p := op.Param; {
		case p < 0:
			return fmt.Errorf("circuit: op %d (%s): negative delay %v cycles", i, *op, p)
		case p != math.Trunc(p):
			return fmt.Errorf("circuit: op %d (%s): fractional delay %v cycles (delays are integer cycle counts)", i, *op, p)
		case p > maxDelay:
			return fmt.Errorf("circuit: op %d (%s): delay %v exceeds %v cycles", i, *op, p, maxDelay)
		}
	}
	want := r.operands
	if want == variadic {
		want = len(op.Qubits)
	}
	if len(op.Qubits) != want {
		return fmt.Errorf("circuit: op %d (%s): %d qubits, want %d", i, *op, len(op.Qubits), want)
	}
	for _, q := range op.Qubits {
		if q < 0 || q >= c.NumQubits {
			return fmt.Errorf("circuit: op %d (%s): qubit %d out of range", i, *op, q)
		}
	}
	if r.operands == 2 && op.Qubits[0] == op.Qubits[1] {
		return fmt.Errorf("circuit: op %d (%s): duplicate qubit", i, *op)
	}
	if op.Kind == Measure && (op.CBit < 0 || op.CBit >= c.NumBits) {
		return fmt.Errorf("circuit: op %d (%s): bad classical bit", i, *op)
	}
	if op.Cond != nil {
		for _, b := range op.Cond.Bits {
			if b < 0 || b >= c.NumBits {
				return fmt.Errorf("circuit: op %d (%s): condition bit %d out of range", i, *op, b)
			}
		}
	}
	if op.Kind == EPR && op.Cond != nil {
		return fmt.Errorf("circuit: op %d (%s): EPR generation cannot be conditioned", i, *op)
	}
	return nil
}

// Stats summarizes a circuit.
type Stats struct {
	OneQubit     int
	TwoQubit     int
	Measurements int
	Feedforward  int // conditioned ops (their condition bits come from measurements)
}

// CountStats tallies gate classes.
func (c *Circuit) CountStats() Stats {
	var s Stats
	for _, op := range c.Ops {
		switch {
		case op.Kind == Measure:
			s.Measurements++
		case op.Kind == Barrier:
		case op.Kind.IsTwoQubit():
			s.TwoQubit++
		default:
			s.OneQubit++
		}
		if op.Cond != nil {
			s.Feedforward++
		}
	}
	return s
}

// IsClifford reports whether every op is stabilizer-simulable.
func (c *Circuit) IsClifford() bool {
	for _, op := range c.Ops {
		if !op.Kind.IsClifford() {
			return false
		}
	}
	return true
}

// Holds reports whether the op the condition guards executes under the
// classical record bits; a nil condition always holds.
func (cond *Condition) Holds(bits []int) bool {
	if cond == nil {
		return true
	}
	p := 0
	for _, b := range cond.Bits {
		p ^= bits[b]
	}
	return p == cond.Parity
}

// oneStream is the Streams of a run that draws every outcome from one RNG.
type oneStream struct{ *rand.Rand }

func (o oneStream) Stream(int) *rand.Rand { return o.Rand }

// run executes the circuit on the n-qubit state fresh builds, driven as the
// substrate on makes of it. Conditions are evaluated on the classical record
// exactly as the control stack would; refusal is the error format for a kind
// the substrate cannot apply.
func run[S any](c *Circuit, rng *rand.Rand, refusal string, fresh func(n int) S, on func(S) Substrate) (none S, bits []int, err error) {
	if err := c.Validate(); err != nil {
		return none, nil, err
	}
	if ub := c.UnboundParams(); len(ub) > 0 {
		return none, nil, fmt.Errorf("circuit: cannot simulate with unbound parameters %v (call Bind first)", ub)
	}
	state := fresh(c.NumQubits)
	sub := on(state)
	bits = make([]int, c.NumBits)
	for _, op := range c.Ops {
		if !op.Cond.Holds(bits) {
			continue
		}
		var q [2]int
		copy(q[:], op.Qubits)
		out, ok := Exec(sub, oneStream{rng}, op.Kind, op.Param, q[0], q[1])
		if !ok {
			return none, nil, fmt.Errorf(refusal, op.Kind)
		}
		if op.Kind == Measure {
			bits[op.CBit] = out
		}
	}
	return state, bits, nil
}

// RunStateVector executes the circuit on a dense simulator, returning the
// final state and the classical bit values.
func (c *Circuit) RunStateVector(rng *rand.Rand) (*quantum.State, []int, error) {
	return run(c, rng, "circuit: cannot simulate %s", quantum.NewState, Dense)
}

// RunStabilizer executes a Clifford circuit on a tableau.
func (c *Circuit) RunStabilizer(rng *rand.Rand) (*stabilizer.Tableau, []int, error) {
	return run(c, rng, "circuit: %s is not Clifford", stabilizer.New, Tableau)
}

// Durations gives the fixed operation times of the evaluation (§6.4.1):
// 20 ns single-qubit, 40 ns two-qubit, 300 ns measurement, on a 4 ns grid.
type Durations struct {
	OneQubit int64 // cycles
	TwoQubit int64
	Measure  int64
}

// PaperDurations are the §6.4.1 constants in cycles.
func PaperDurations() Durations { return Durations{OneQubit: 5, TwoQubit: 10, Measure: 75} }

// Of is the duration rule: the cycles an op of kind k with parameter param
// occupies its qubits, by the kind's duration class. An EPR generation takes
// eprLatency, or TwoQubit when none is configured (eprLatency <= 0).
func (d Durations) Of(k Kind, param float64, eprLatency int64) int64 {
	switch k.row().dur {
	case durMeasure:
		return d.Measure
	case durParam:
		return int64(param)
	case durEPR:
		if eprLatency > 0 {
			return eprLatency
		}
		fallthrough
	case durTwoQubit:
		return d.TwoQubit
	}
	return d.OneQubit
}

// Depth returns the circuit's time depth in cycles under d: an ASAP
// schedule on per-qubit timelines in which a conditioned op also waits for
// the measurements that write its condition bits, with zero control
// overhead, EPR generation at d.TwoQubit (latency 0) and partial barriers
// ignored (a full barrier aligns every qubit). It is the metric of the
// Fig. 14 constant-depth claim.
//
// Every conditioned op is charged whether or not its branch is taken, so
// Depth is the all-branch depth, not a floor under a shot: a shot that
// skips a conditioned op can finish before it (on the adder rows the
// taken-branch floor sits 17–18 % below Depth), and a shot with a
// configured EPR latency may pay more than Depth's d.TwoQubit per pair.
func (c *Circuit) Depth(d Durations) int64 {
	avail := make([]int64, c.NumQubits)
	measDone := make([]int64, c.NumBits)
	var maxT int64
	for _, op := range c.Ops {
		if op.Kind == Barrier {
			qs := op.Qubits
			if len(qs) == 0 {
				var m int64
				for _, t := range avail {
					m = max(m, t)
				}
				for i := range avail {
					avail[i] = m
				}
			}
			continue
		}
		start := int64(0)
		for _, q := range op.Qubits {
			start = max(start, avail[q])
		}
		if op.Cond != nil {
			for _, b := range op.Cond.Bits {
				start = max(start, measDone[b])
			}
		}
		end := start + d.Of(op.Kind, op.Param, 0)
		for _, q := range op.Qubits {
			avail[q] = end
		}
		if op.Kind == Measure {
			measDone[op.CBit] = end
		}
		maxT = max(maxT, end)
	}
	return maxT
}
