package circuit

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSymbolicBuildersAndParams(t *testing.T) {
	c := New(3)
	c.RXSym(0, "a").RYSym(1, "b").RZSym(2, "c").CPhaseSym(0, 1, "b")
	if got := c.Params(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Params() = %v", got)
	}
	if got := c.UnboundParams(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("UnboundParams() = %v", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("skeleton should validate: %v", err)
	}
}

func TestBindSemantics(t *testing.T) {
	c := New(2)
	c.RZSym(0, "theta").CPhaseSym(0, 1, "phi").MeasureInto(0, 0)
	bound, err := c.Bind(map[string]float64{"theta": 0.25, "phi": math.Copysign(0, -1)})
	if err != nil {
		t.Fatal(err)
	}
	// Binding is a deep copy: the skeleton stays unbound.
	if got := c.UnboundParams(); len(got) != 2 {
		t.Fatalf("skeleton mutated: UnboundParams() = %v", got)
	}
	if got := bound.UnboundParams(); len(got) != 0 {
		t.Fatalf("bound circuit still unbound: %v", got)
	}
	if bound.Ops[0].Param != 0.25 || !bound.Ops[0].Bound || bound.Ops[0].Sym != "theta" {
		t.Fatalf("op 0 after bind: %+v", bound.Ops[0])
	}
	// -0.0 canonicalizes to +0.0.
	if v := bound.Ops[1].Param; math.Signbit(v) || v != 0 {
		t.Fatalf("phi = %v, want canonical +0", v)
	}
	// Simulation requires a bound circuit.
	if _, _, err := c.RunStateVector(nil); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("skeleton simulated: %v", err)
	}

	// Error cases.
	if _, err := c.Bind(map[string]float64{"theta": 1}); err == nil {
		t.Error("partial binding accepted")
	}
	if _, err := c.Bind(map[string]float64{"theta": 1, "phi": 2, "zz": 3}); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := c.Bind(map[string]float64{"theta": math.NaN(), "phi": 2}); err == nil {
		t.Error("NaN binding accepted")
	}
	// Rebinding a bound circuit (full map) is allowed.
	re, err := bound.Bind(map[string]float64{"theta": 1, "phi": 2})
	if err != nil {
		t.Fatal(err)
	}
	if re.Ops[0].Param != 1 || re.Ops[1].Param != 2 {
		t.Fatalf("rebind wrong: %v %v", re.Ops[0].Param, re.Ops[1].Param)
	}
}

func TestValidateRejectsBadDelays(t *testing.T) {
	mk := func(p float64) *Circuit {
		c := New(1)
		c.Ops = append(c.Ops, Op{Kind: Delay, Qubits: []int{0}, Param: p, CBit: -1})
		return c
	}
	for _, tc := range []struct {
		p  float64
		ok bool
	}{
		{0, true},
		{1, true},
		{40, true},
		{float64(1 << 53), true},
		{-1, false},
		{-0.5, false},
		{0.5, false},
		{39.999, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{float64(1<<53) * 2, false},
	} {
		err := mk(tc.p).Validate()
		if tc.ok && err != nil {
			t.Errorf("delay %v rejected: %v", tc.p, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("delay %v accepted", tc.p)
		}
	}
}

func TestValidateRejectsNaNAndMisplacedSymbols(t *testing.T) {
	c := New(1)
	c.RZGate(0, math.NaN())
	if err := c.Validate(); err == nil {
		t.Error("NaN rotation accepted")
	}
	c2 := New(2)
	c2.Ops = append(c2.Ops, Op{Kind: CNOT, Qubits: []int{0, 1}, CBit: -1, Sym: "x"})
	if err := c2.Validate(); err == nil {
		t.Error("symbolic CNOT accepted")
	}
	c3 := New(1)
	c3.Ops = append(c3.Ops, Op{Kind: Delay, Qubits: []int{0}, Param: 4, CBit: -1, Sym: "d"})
	if err := c3.Validate(); err == nil {
		t.Error("symbolic delay accepted")
	}
}

func TestQASMSymbolicRoundTrip(t *testing.T) {
	c := New(2)
	c.H(0).RZSym(0, "theta0").CPhaseSym(0, 1, "g_1").MeasureInto(0, 0)
	src, err := WriteQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "rz(theta0) q[0]") || !strings.Contains(src, "cp(g_1) q[0],q[1]") {
		t.Fatalf("symbols not written:\n%s", src)
	}
	back, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.UnboundParams(); !reflect.DeepEqual(got, []string{"g_1", "theta0"}) {
		t.Fatalf("round-trip params = %v", got)
	}
	// A bound circuit writes literal angles and parses back concrete.
	bound, err := c.Bind(map[string]float64{"theta0": 0.5, "g_1": 0.75})
	if err != nil {
		t.Fatal(err)
	}
	src2, err := WriteQASM(bound)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := ParseQASM(src2)
	if err != nil {
		t.Fatal(err)
	}
	if len(back2.UnboundParams()) != 0 {
		t.Fatalf("bound circuit round-tripped symbols: %s", src2)
	}
	if back2.Ops[1].Param != 0.5 {
		t.Fatalf("bound angle lost: %+v", back2.Ops[1])
	}
}

// angleGrammarCases and angleGrammarBad are the accepted and rejected
// spellings TestParseAngleGrammar pins; FuzzParseQASMDifferential seeds
// itself with all of them.
var angleGrammarCases = func() []angleCase {
	pi := math.Pi // force runtime float64 arithmetic (left-to-right, like the parser)
	return []angleCase{
		{"0.5", 0.5, ""},
		{"-0.25", -0.25, ""},
		{"1e-3", 1e-3, ""},
		{"pi", math.Pi, ""},
		{"-pi", -math.Pi, ""},
		{"+pi", math.Pi, ""},
		{"pi/2", pi / 2, ""},
		{"-pi/4", -pi / 4, ""},
		{"2*pi", 2 * pi, ""},
		{"pi*2", pi * 2, ""},
		{"3*pi/2", 3 * pi / 2, ""},
		{"pi*3/4", pi * 3 / 4, ""},
		{"-3*pi/8", -3 * pi / 8, ""},
		{" pi / 2 ", pi / 2, ""},
		{"2*pi/3", 2 * pi / 3, ""},
		{"theta0", 0, "theta0"},
		{"_t", 0, "_t"},
		{"Phi_2", 0, "Phi_2"},
	}
}()

type angleCase struct {
	in   string
	want float64
	sym  string
}

var angleGrammarBad = []string{"", "*", "pi*", "*pi", "pi//2", "2**pi", "pi/", "-", "1x", "-theta", "pi+1", "2pi", "PI", "Pi", "NaN", "inf", "Infinity"}

func TestParseAngleGrammar(t *testing.T) {
	for _, tc := range angleGrammarCases {
		v, sym, err := parseAngle(tc.in)
		if err != nil {
			t.Errorf("parseAngle(%q): %v", tc.in, err)
			continue
		}
		if sym != tc.sym || v != tc.want {
			t.Errorf("parseAngle(%q) = (%v, %q), want (%v, %q)", tc.in, v, sym, tc.want, tc.sym)
		}
	}
	for _, bad := range angleGrammarBad {
		if _, _, err := parseAngle(bad); err == nil {
			t.Errorf("parseAngle(%q) accepted", bad)
		}
	}
	// Errors carry the angle text and the offset of the offending token.
	_, _, err := parseAngle("pi/oops")
	if err == nil || !strings.Contains(err.Error(), `"oops"`) || !strings.Contains(err.Error(), "offset 3") {
		t.Errorf("position-free angle error: %v", err)
	}
}

func TestParseQASMBadAngleNamesLine(t *testing.T) {
	src := "OPENQASM 2.0;\nqreg q[1];\nrz(pi**2) q[0];\n"
	_, err := ParseQASM(src)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("bad angle error lacks line info: %v", err)
	}
}

func TestNonFiniteAnglesRejectedEverywhere(t *testing.T) {
	// The angle grammar: division by zero and literal overflow are errors.
	for _, bad := range []string{"1/0", "-pi/0", "1e999"} {
		if _, _, err := parseAngle(bad); err == nil {
			t.Errorf("parseAngle(%q) accepted a non-finite angle", bad)
		}
	}
	// Validation: an Inf rotation would propagate NaN amplitudes.
	c := New(1)
	c.RZGate(0, math.Inf(1))
	if err := c.Validate(); err == nil {
		t.Error("Inf rotation accepted by Validate")
	}
	// Binding: Inf values rejected like NaN.
	s := New(1)
	s.RZSym(0, "a")
	if _, err := s.Bind(map[string]float64{"a": math.Inf(-1)}); err == nil {
		t.Error("Inf binding accepted")
	}
}

func TestDualRailEmbedsBoundLongRangeCPhase(t *testing.T) {
	skel := New(4)
	skel.CPhaseSym(0, 3, "t")
	// Unbound: the decomposition needs the concrete angle.
	if _, err := (DualRailEmbedding{}).Embed(skel); err == nil {
		t.Fatal("unbound long-range cp embedded")
	}
	bound, err := skel.Bind(map[string]float64{"t": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := (DualRailEmbedding{}).Embed(bound)
	if err != nil {
		t.Fatalf("bound long-range cp rejected: %v", err)
	}
	lit := New(4)
	lit.CPhaseGate(0, 3, 0.5)
	want, err := (DualRailEmbedding{}).Embed(lit)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("bound embedding differs from literal: %d vs %d ops", len(got.Ops), len(want.Ops))
	}
}

func TestParseQASMAngleSpacesAndUntermination(t *testing.T) {
	// Spaces inside the paren group are legal QASM.
	c, err := ParseQASM("OPENQASM 2.0;\nqreg q[1];\nrz( pi / 2 ) q[0];\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Ops[0].Param; got != math.Pi/2 {
		t.Fatalf("spaced angle parsed as %v", got)
	}
	// An unterminated angle is an error, not a panic (fuzz regression:
	// "rz( 0) q[0]" used to slice with a -1 bound via the first token).
	if _, err := ParseQASM("OPENQASM 2.0;\nqreg q[1];\nrz(0 q[0];\n"); err == nil {
		t.Fatal("unterminated angle accepted")
	}
}
