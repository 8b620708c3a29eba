package circuit

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzParseAngle drives the QASM angle grammar — the seeds cover every
// production (floats, pi products/quotients, signs, identifiers) plus the
// malformed shapes the parser must reject cleanly. Properties: no panic,
// agreement with the reference evaluator, a successful parse is either a
// non-NaN value or a legal identifier (never both), and the value survives
// a full rz(...) round trip through WriteQASM/ParseQASM.
func FuzzParseAngle(f *testing.F) {
	for _, seed := range []string{
		"0.5", "-0.25", "1e-3", "2E5", "3.14159",
		"pi", "-pi", "+pi", "pi/2", "-pi/4", "pi/16",
		"2*pi", "pi*2", "3*pi/2", "pi*3/4", "-3*pi/8", "2*pi/3",
		"pi*pi", "pi/pi", "1/3", "2*3/4",
		"theta0", "_t", "Phi_2", "gamma",
		"", "*", "/", "-", "pi*", "*pi", "pi//2", "2**pi",
		"pi+1", "2pi", "1x", "-theta", "0/0", "pi/0", "1e999",
		" pi / 2 ", "--pi", "+-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, sym, err := parseAngle(s)
		// The in-place evaluator must agree with the one it replaced on the
		// value, the symbol and the error text (token and offset included).
		rv, rsym, rerr := refParseAngle(s)
		if v != rv || sym != rsym || (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("parseAngle(%q) = (%v, %q, %v), reference (%v, %q, %v)", s, v, sym, err, rv, rsym, rerr)
		}
		if err != nil {
			return
		}
		if sym != "" {
			if v != 0 || !isIdent(sym) || sym == "pi" {
				t.Fatalf("parseAngle(%q) = (%v, %q): bad symbolic result", s, v, sym)
			}
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("parseAngle(%q) returned non-finite %v without error", s, v)
		}
		// Round trip: the parsed value must survive emission as a literal.
		src := fmt.Sprintf("OPENQASM 2.0;\nqreg q[1];\nrz(%.17g) q[0];\n", v)
		c, err := ParseQASM(src)
		if err != nil {
			t.Fatalf("round trip of %q (= %v) failed: %v", s, v, err)
		}
		if got := c.Ops[0].Param; got != v {
			t.Fatalf("round trip of %q: %v != %v", s, got, v)
		}
	})
}

// FuzzParseQASMAngleStmt feeds raw angle text through a whole rz
// statement: the parser must never panic and every accepted circuit must
// validate.
func FuzzParseQASMAngleStmt(f *testing.F) {
	for _, seed := range []string{"pi/2", "theta0", "2*pi", "bogus**", "0/0", "-pi*3/4"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if strings.ContainsAny(s, ");\n") {
			return // statement structure itself is FuzzParseAngle's job
		}
		src := "OPENQASM 2.0;\nqreg q[2];\nrz(" + s + ") q[0];\ncp(" + s + ") q[0],q[1];\n"
		c, err := ParseQASM(src)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted circuit fails validation for angle %q: %v", s, err)
		}
	})
}
