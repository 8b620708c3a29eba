package circuit

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderAndValidate(t *testing.T) {
	c := New(3)
	c.H(0).CNOT(0, 1).CZ(1, 2)
	b := c.MeasureNew(2)
	c.CondGate(X, Condition{Bits: []int{b}, Parity: 1}, 0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	st := c.CountStats()
	if st.OneQubit != 2 || st.TwoQubit != 2 || st.Measurements != 1 || st.Feedforward != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValidateRejectsBadOps(t *testing.T) {
	bad := []*Circuit{
		New(2).Gate(CNOT, 0),    // arity
		New(2).Gate(CNOT, 0, 0), // duplicate qubit
		New(2).Gate(H, 5),       // out of range
		{NumQubits: 1, Ops: []Op{{Kind: Measure, Qubits: []int{0}, CBit: 3}}},
		// a parameter on a kind that takes none (it would fingerprint apart)
		{NumQubits: 1, Ops: []Op{{Kind: H, Qubits: []int{0}, Param: 0.5, CBit: -1}}},
		{NumQubits: 2, Ops: []Op{{Kind: CNOT, Qubits: []int{0, 1}, Param: 1.5, CBit: -1}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRunStateVectorBell(t *testing.T) {
	c := New(2)
	c.H(0).CNOT(0, 1)
	c.MeasureNew(0)
	c.MeasureNew(1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		_, bits, err := c.RunStateVector(rng)
		if err != nil {
			t.Fatal(err)
		}
		if bits[0] != bits[1] {
			t.Fatalf("bell outcomes differ: %v", bits)
		}
	}
}

func TestConditionedOpRuns(t *testing.T) {
	// X on q0; measure; conditioned X on q1 must fire (parity 1).
	c := New(2)
	c.X(0)
	b := c.MeasureNew(0)
	c.CondGate(X, Condition{Bits: []int{b}, Parity: 1}, 1)
	m2 := c.MeasureNew(1)
	_, bits, err := c.RunStateVector(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if bits[m2] != 1 {
		t.Fatal("conditioned X did not fire")
	}
	// Parity 0 condition must not fire.
	c2 := New(2)
	c2.X(0)
	b2 := c2.MeasureNew(0)
	c2.CondGate(X, Condition{Bits: []int{b2}, Parity: 0}, 1)
	m22 := c2.MeasureNew(1)
	_, bits2, _ := c2.RunStateVector(rand.New(rand.NewSource(1)))
	if bits2[m22] != 0 {
		t.Fatal("parity-0 condition fired on bit value 1")
	}
}

func TestStabilizerAndStateVectorAgreeOnCircuit(t *testing.T) {
	c := New(3)
	c.H(0).CNOT(0, 1).CNOT(1, 2).S(2).CZ(0, 2)
	c.MeasureNew(0)
	c.MeasureNew(1)
	c.MeasureNew(2)
	// Same seed drives both runs; outcome draws may differ in count, so
	// compare correlation structure instead: b0==b1==b2 (GHZ-like parity).
	for seed := int64(0); seed < 20; seed++ {
		_, bits, err := c.RunStabilizer(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if bits[0] != bits[1] || bits[1] != bits[2] {
			t.Fatalf("seed %d: GHZ correlation broken in tableau run: %v", seed, bits)
		}
		_, bits2, err := c.RunStateVector(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if bits2[0] != bits2[1] || bits2[1] != bits2[2] {
			t.Fatalf("seed %d: GHZ correlation broken in statevec run: %v", seed, bits2)
		}
	}
}

// resetAncillas measures each ancilla again and flips it back to |0⟩ so the
// whole-state fidelity against a reference with ancillas in |0⟩ is
// meaningful.
func resetAncillas(c *Circuit, ancillas []int) {
	for _, q := range ancillas {
		b := c.MeasureNew(q)
		c.CondGate(X, Condition{Bits: []int{b}, Parity: 1}, q)
	}
}

// randPrefix applies a random (generally non-Clifford) unitary prefix to the
// given qubits, identically to both circuits.
func randPrefix(rng *rand.Rand, qubits []int, cs ...*Circuit) {
	for g := 0; g < 12; g++ {
		q := qubits[rng.Intn(len(qubits))]
		switch rng.Intn(5) {
		case 0:
			for _, c := range cs {
				c.H(q)
			}
		case 1:
			th := rng.Float64() * 2 * math.Pi
			for _, c := range cs {
				c.RYGate(q, th)
			}
		case 2:
			th := rng.Float64() * 2 * math.Pi
			for _, c := range cs {
				c.RZGate(q, th)
			}
		case 3:
			for _, c := range cs {
				c.T(q)
			}
		case 4:
			p := qubits[rng.Intn(len(qubits))]
			if p != q {
				for _, c := range cs {
					c.CNOT(q, p)
				}
			}
		}
	}
}

// TestLongRangeCNOTExact checks that the dynamic construction implements an
// exact CNOT for 0..7 ancillas on random (entangled, non-Clifford) inputs:
// after resetting ancillas, the full state must match a direct CNOT with
// fidelity 1.
func TestLongRangeCNOTExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for m := 0; m <= 7; m++ {
		n := m + 3 // ctrl=0, ancillas 1..m, tgt=m+1, reference=m+2
		ctrl, tgt, ref := 0, m+1, m+2
		anc := make([]int, m)
		for i := range anc {
			anc[i] = i + 1
		}
		for trial := 0; trial < 10; trial++ {
			dyn := New(n)
			ideal := New(n)
			// Entangle ctrl/tgt with a reference qubit so the test also
			// catches phase errors invisible on product inputs.
			randPrefix(rng, []int{ctrl, tgt, ref}, dyn, ideal)
			dyn.LongRangeCNOT(ctrl, tgt, anc)
			resetAncillas(dyn, anc)
			ideal.CNOT(ctrl, tgt)

			sd, _, err := dyn.RunStateVector(rand.New(rand.NewSource(int64(trial))))
			if err != nil {
				t.Fatalf("m=%d: %v", m, err)
			}
			si, _, err := ideal.RunStateVector(rand.New(rand.NewSource(int64(trial))))
			if err != nil {
				t.Fatalf("m=%d: %v", m, err)
			}
			if f := sd.Fidelity(si); math.Abs(f-1) > 1e-9 {
				t.Fatalf("m=%d trial=%d: fidelity %g", m, trial, f)
			}
		}
	}
}

func TestLongRangeCZExact(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, m := range []int{0, 2, 4, 5} {
		n := m + 3
		ctrl, tgt, ref := 0, m+1, m+2
		anc := make([]int, m)
		for i := range anc {
			anc[i] = i + 1
		}
		dyn := New(n)
		ideal := New(n)
		randPrefix(rng, []int{ctrl, tgt, ref}, dyn, ideal)
		dyn.LongRangeCZ(ctrl, tgt, anc)
		resetAncillas(dyn, anc)
		ideal.CZ(ctrl, tgt)
		sd, _, _ := dyn.RunStateVector(rand.New(rand.NewSource(9)))
		si, _, _ := ideal.RunStateVector(rand.New(rand.NewSource(9)))
		if f := sd.Fidelity(si); math.Abs(f-1) > 1e-9 {
			t.Fatalf("m=%d: CZ fidelity %g", m, f)
		}
	}
}

func TestLongRangeCPhaseExact(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, m := range []int{1, 2, 3, 5} {
		for _, theta := range []float64{math.Pi / 2, math.Pi / 8, 1.234} {
			n := m + 3
			ctrl, tgt, ref := 0, m+1, m+2
			anc := make([]int, m)
			for i := range anc {
				anc[i] = i + 1
			}
			dyn := New(n)
			ideal := New(n)
			randPrefix(rng, []int{ctrl, tgt, ref}, dyn, ideal)
			dyn.LongRangeCPhase(ctrl, tgt, theta, anc)
			resetAncillas(dyn, anc)
			ideal.CPhaseGate(ctrl, tgt, theta)
			sd, _, _ := dyn.RunStateVector(rand.New(rand.NewSource(3)))
			si, _, _ := ideal.RunStateVector(rand.New(rand.NewSource(3)))
			if f := sd.Fidelity(si); math.Abs(f-1) > 1e-9 {
				t.Fatalf("m=%d theta=%g: fidelity %g", m, theta, f)
			}
		}
	}
}

func TestLongRangeCNOTConstantDepth(t *testing.T) {
	// Fig. 14's point: dynamic long-range CNOT depth is constant in the
	// distance, while SWAP routing grows linearly.
	d := PaperDurations()
	depthAt := func(m int) (dynamic, swapped int64) {
		anc := make([]int, m)
		for i := range anc {
			anc[i] = i + 1
		}
		dyn := New(m + 2)
		dyn.LongRangeCNOT(0, m+1, anc)
		sw := New(m + 2)
		sw.SwapRouteCNOT(0, m+1, anc)
		return dyn.Depth(d), sw.Depth(d)
	}
	d4, s4 := depthAt(4)
	d16, s16 := depthAt(16)
	d64, s64 := depthAt(64)
	if d16 != d4 || d64 != d4 {
		t.Fatalf("dynamic depth not constant: %d, %d, %d", d4, d16, d64)
	}
	if !(s4 < s16 && s16 < s64) {
		t.Fatalf("swap depth not growing: %d, %d, %d", s4, s16, s64)
	}
}

func TestSwapRouteCNOTExact(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, m := range []int{1, 3, 5} {
		n := m + 3
		anc := make([]int, m)
		for i := range anc {
			anc[i] = i + 1
		}
		dyn := New(n)
		ideal := New(n)
		randPrefix(rng, []int{0, m + 1, m + 2}, dyn, ideal)
		dyn.SwapRouteCNOT(0, m+1, anc)
		ideal.CNOT(0, m+1)
		sd, _, _ := dyn.RunStateVector(rand.New(rand.NewSource(5)))
		si, _, _ := ideal.RunStateVector(rand.New(rand.NewSource(5)))
		if f := sd.Fidelity(si); math.Abs(f-1) > 1e-9 {
			t.Fatalf("m=%d: swap-route fidelity %g", m, f)
		}
	}
}

func TestQASMRoundTrip(t *testing.T) {
	c := New(3)
	c.H(0).CNOT(0, 1).CZ(1, 2).S(0).T(1).Sdg(2).Tdg(0)
	c.RXGate(0, math.Pi/4)
	c.CPhaseGate(0, 2, math.Pi/8)
	b := c.MeasureNew(2)
	c.CondGate(X, Condition{Bits: []int{b}, Parity: 1}, 0)
	src, err := WriteQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseQASM(src)
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, src)
	}
	if c2.NumQubits != 3 || c2.NumBits != 1 {
		t.Fatalf("shape: %d qubits %d bits", c2.NumQubits, c2.NumBits)
	}
	if len(c2.Ops) != len(c.Ops) {
		t.Fatalf("ops: %d vs %d\n%s", len(c2.Ops), len(c.Ops), src)
	}
	for i := range c.Ops {
		a, b := c.Ops[i], c2.Ops[i]
		if a.Kind != b.Kind || math.Abs(a.Param-b.Param) > 1e-15 {
			t.Fatalf("op %d: %v vs %v", i, a, b)
		}
	}
}

func TestQASMParityDecomposition(t *testing.T) {
	// Multi-bit parity conditions decompose into per-bit conditionals.
	c := New(2)
	b1 := c.MeasureNew(0)
	b2 := c.MeasureNew(1)
	c.CondGate(X, Condition{Bits: []int{b1, b2}, Parity: 1}, 0)
	src, err := WriteQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	// Semantics check: X fires iff b1 xor b2 == 1 in both representations.
	for seed := int64(0); seed < 10; seed++ {
		s1, bits1, _ := c.RunStateVector(rand.New(rand.NewSource(seed)))
		s2, bits2, _ := c2.RunStateVector(rand.New(rand.NewSource(seed)))
		if bits1[0] != bits2[0] || bits1[1] != bits2[1] {
			t.Fatalf("outcome divergence: %v vs %v", bits1, bits2)
		}
		if f := s1.Fidelity(s2); math.Abs(f-1) > 1e-9 {
			t.Fatalf("states diverge: fidelity %g", f)
		}
	}
}

func TestDepthComputation(t *testing.T) {
	d := PaperDurations()
	c := New(2)
	c.H(0)       // q0: 0..5
	c.H(1)       // q1: 0..5 (parallel)
	c.CNOT(0, 1) // both: 5..15
	c.H(0)       // q0: 15..20
	if got := c.Depth(d); got != 20 {
		t.Fatalf("depth = %d, want 20", got)
	}
	c.MeasureNew(1) // q1: 15..90
	if got := c.Depth(d); got != 90 {
		t.Fatalf("depth with measure = %d, want 90", got)
	}
}

func TestDepthRespectsFeedforward(t *testing.T) {
	d := PaperDurations()
	c := New(2)
	b := c.MeasureNew(0) // 0..75
	c.CondGate(X, Condition{Bits: []int{b}, Parity: 1}, 1)
	if got := c.Depth(d); got != 80 {
		t.Fatalf("feedforward depth = %d, want 80", got)
	}
}

func TestDelayOp(t *testing.T) {
	d := PaperDurations()
	c := New(1)
	c.DelayGate(0, 1000)
	c.H(0)
	if got := c.Depth(d); got != 1005 {
		t.Fatalf("delay depth = %d, want 1005", got)
	}
	if _, _, err := c.RunStateVector(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}

func TestDualRailReversedCNOT(t *testing.T) {
	// CNOT with control above target exercises the path-ordered ancilla
	// chain (descending columns on the ancilla rail).
	logical := New(3)
	logical.X(2)
	logical.CNOT(2, 0)
	logical.MeasureInto(0, 0)
	logical.MeasureInto(2, 1)
	phys, err := DualRailEmbedding{}.Embed(logical)
	if err != nil {
		t.Fatal(err)
	}
	if phys.NumQubits != 6 {
		t.Fatalf("physical qubits = %d, want 6", phys.NumQubits)
	}
	for seed := int64(0); seed < 10; seed++ {
		_, bits, err := phys.RunStabilizer(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if bits[0] != 1 || bits[1] != 1 {
			t.Fatalf("seed %d: reversed CNOT broken: %v", seed, bits[:2])
		}
	}
}

func TestDualRailCrossingGatesPreserveData(t *testing.T) {
	// The failure mode that motivates the dual rail: a long-range gate whose
	// endpoints straddle another *live* logical qubit must not disturb it.
	logical := New(3)
	logical.H(1) // live superposition on the crossed qubit
	logical.X(0)
	logical.CNOT(0, 2) // crosses logical qubit 1
	logical.H(1)       // HH = I if qubit 1 was untouched
	logical.MeasureInto(1, 0)
	logical.MeasureInto(2, 1)
	phys, err := DualRailEmbedding{}.Embed(logical)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		_, bits, err := phys.RunStabilizer(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if bits[0] != 0 {
			t.Fatalf("seed %d: crossed qubit disturbed", seed)
		}
		if bits[1] != 1 {
			t.Fatalf("seed %d: CNOT did not fire", seed)
		}
	}
}

func TestDualRailGridLocality(t *testing.T) {
	// Every two-qubit gate in an embedded circuit must act on grid-adjacent
	// qubits (data rail row 0, ancilla rail row 1) — the property that lets
	// the compiler use nearest-neighbor BISP sync exclusively.
	logical := New(4)
	logical.H(0).CNOT(0, 3).CZ(3, 1).CPhaseGate(2, 0, math.Pi/4)
	phys, err := DualRailEmbedding{}.Embed(logical)
	if err != nil {
		t.Fatal(err)
	}
	w := DualRailEmbedding{}.GridW(4)
	for i, op := range phys.Ops {
		if op.Kind.IsTwoQubit() {
			a, b := op.Qubits[0], op.Qubits[1]
			dx := a%w - b%w
			dy := a/w - b/w
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			if dx+dy != 1 {
				t.Fatalf("op %d (%s): grid distance %d", i, op, dx+dy)
			}
		}
	}
}

func TestDualRailExactOnRandomInputs(t *testing.T) {
	// Whole-circuit unitary check: dual-rail embedding of a CNOT chain on
	// random non-Clifford inputs matches the logical circuit exactly.
	rng := rand.New(rand.NewSource(31))
	logical := New(4)
	idealView := New(8) // embedded space: 4 data + 4 ancilla
	randPrefix(rng, []int{0, 1, 2, 3}, logical, idealView)
	logical.CNOT(0, 3)
	logical.CNOT(2, 0)
	idealView.CNOT(0, 3)
	idealView.CNOT(2, 0)
	phys, err := DualRailEmbedding{}.Embed(logical)
	if err != nil {
		t.Fatal(err)
	}
	anc := []int{4, 5, 6, 7}
	resetAncillas(phys, anc)
	sd, _, err := phys.RunStateVector(rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	si, _, err := idealView.RunStateVector(rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if f := sd.Fidelity(si); math.Abs(f-1) > 1e-9 {
		t.Fatalf("dual-rail fidelity %g", f)
	}
}

func TestQASMRoundTripProperty(t *testing.T) {
	// Property: WriteQASM ∘ ParseQASM is the identity on random circuits
	// built from the full supported op set.
	rng := rand.New(rand.NewSource(55))
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed) + rng.Int63()))
		c := New(4)
		for i := 0; i < 20; i++ {
			q := r.Intn(4)
			p := (q + 1 + r.Intn(3)) % 4
			switch r.Intn(11) {
			case 9:
				c.Gate(Barrier, q, p) // partial: the operand list must survive
			case 10:
				c.BarrierAll()
			case 0:
				c.H(q)
			case 1:
				c.T(q)
			case 2:
				c.RZGate(q, r.Float64())
			case 3:
				c.CNOT(q, p)
			case 4:
				c.CZ(q, p)
			case 5:
				c.CPhaseGate(q, p, r.Float64())
			case 6:
				c.MeasureNew(q)
			case 7:
				c.ResetGate(q)
			case 8:
				c.Sdg(q)
			}
		}
		src, err := WriteQASM(c)
		if err != nil {
			return false
		}
		back, err := ParseQASM(src)
		if err != nil {
			return false
		}
		if len(back.Ops) != len(c.Ops) || back.NumQubits != c.NumQubits {
			return false
		}
		for i := range c.Ops {
			a, b := c.Ops[i], back.Ops[i]
			if a.Kind != b.Kind || a.CBit != b.CBit || math.Abs(a.Param-b.Param) > 1e-12 {
				return false
			}
			if len(a.Qubits) != len(b.Qubits) {
				return false
			}
			for k := range a.Qubits {
				if a.Qubits[k] != b.Qubits[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParseQASMBarrierOperands(t *testing.T) {
	c, err := ParseQASM("qreg q[3];\nbarrier q[0],q[1];\nbarrier q;\nbarrier q[2], q;\nbarrier;\n")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, nil, nil, nil}
	if len(c.Ops) != len(want) {
		t.Fatalf("%d ops, want %d", len(c.Ops), len(want))
	}
	for i, op := range c.Ops {
		if op.Kind != Barrier || !reflect.DeepEqual(op.Qubits, want[i]) {
			t.Errorf("op %d = %v (qubits %v), want barrier on %v", i, op, op.Qubits, want[i])
		}
	}
	// The wire form of a partial barrier is the circuit the facade built.
	built := New(3)
	built.Gate(Barrier, 0, 1)
	src, err := WriteQASM(built)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Ops, built.Ops) {
		t.Fatalf("partial barrier round trip: %+v, want %+v", back.Ops, built.Ops)
	}
}

func TestParseQASMRejectsOutsideInput(t *testing.T) {
	// Register names count, a program has one qreg, and keywords are whole
	// tokens; each rejection names its line.
	for _, tc := range []struct {
		name, src, want string
	}{
		{"undeclared register", "qreg q[2];\nh q[0];\nh nosuch[1];\n", `qasm line 3: undeclared quantum register "nosuch"`},
		{"operand before qreg", "h q[0];\nqreg q[1];\n", `qasm line 1: undeclared quantum register "q"`},
		{"measure on undeclared register", "qreg q[1];\ncreg c[1];\nmeasure r[0] -> c[0];\n", `qasm line 3: undeclared quantum register "r"`},
		{"second qreg", "qreg q[2];\n\nqreg r[4];\n", `qasm line 3: qreg "r": quantum register "q" is already declared`},
		{"qreg redeclared", "qreg q[2];\nqreg q[4];\n", `qasm line 2: qreg "q": quantum register "q" is already declared`},
		{"keyword prefix: barrier", "qreg q[2];\nbarrierfoo q;\n", `qasm line 2: unsupported statement "barrierfoo q"`},
		{"keyword prefix: qreg", "qregs[2];\n", `qasm line 1: unsupported statement "qregs[2]"`},
		{"keyword prefix: creg", "qreg q[1];\ncregs c[2];\n", `qasm line 2: unsupported statement "cregs c[2]"`},
		{"keyword prefix: header", "OPENQASMX 2.0;\n", `qasm line 1: unsupported statement "OPENQASMX 2.0"`},
		{"nameless register", "qreg [2];\n", `qasm line 1: register declaration "qreg [2]" names no register`},
		{"text after operand", "qreg q[2];\nh q[0] q[1];\n", `qasm line 2: unexpected "q[1]" after qubit reference "q[0]"`},
		{"barrier on undeclared register", "qreg q[2];\nbarrier r;\n", `qasm line 2: barrier operand: undeclared quantum register "r"`},
		{"barrier operand out of range", "qreg q[2];\nbarrier q[0],q[2];\n", `circuit: op 0 (barrier q0 q2): qubit 2 out of range`},
		// An angle is written exactly when the gate set gives the gate one.
		{"rotation without angle", "qreg q[2];\nh q[1];\nrz q[0];\n", `qasm line 3: gate "rz" needs an angle`},
		{"controlled phase without angle", "qreg q[2];\ncp q[0],q[1];\n", `qasm line 2: gate "cp" needs an angle`},
		{"angle on h", "qreg q[2];\nh(0.5) q[0];\n", `qasm line 2: gate "h" takes no angle`},
		{"angle on cx", "qreg q[2];\n\ncx(1.5) q[0],q[1];\n", `qasm line 3: gate "cx" takes no angle`},
		{"angle on reset", "qreg q[2];\nreset(0.3) q[0];\n", `qasm line 2: gate "reset" takes no angle`},
	} {
		_, err := ParseQASM(tc.src)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want prefix %q", tc.name, err, tc.want)
		}
	}
}

func TestDepthNonNegativeAndMonotoneProperty(t *testing.T) {
	// Property: appending any operation never decreases circuit depth.
	d := PaperDurations()
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		c := New(5)
		prev := int64(0)
		for i := 0; i < 30; i++ {
			q := r.Intn(5)
			switch r.Intn(4) {
			case 0:
				c.H(q)
			case 1:
				c.CNOT(q, (q+1)%5)
			case 2:
				c.MeasureNew(q)
			case 3:
				c.DelayGate(q, int64(r.Intn(100)))
			}
			dep := c.Depth(d)
			if dep < prev {
				return false
			}
			prev = dep
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
