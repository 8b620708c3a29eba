package circuit_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/workloads"
)

// qasmFamily is one of the sources the admission path is measured on: the
// three warm families of the wire benchmark's warm_closed workload.
type qasmFamily struct {
	name, src string
}

func mustQASM(tb testing.TB, c *circuit.Circuit) string {
	tb.Helper()
	src, err := circuit.WriteQASM(c)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

func mustBench(tb testing.TB, name string, div int) *circuit.Circuit {
	tb.Helper()
	b, err := workloads.BuildScaled(name, div)
	if err != nil {
		tb.Fatal(err)
	}
	return b.Circuit
}

func warmFamilies(tb testing.TB) []qasmFamily {
	return []qasmFamily{
		{"ghz_n8", mustQASM(tb, workloads.GHZ(8))},
		{"bv_n400_s8", mustQASM(tb, mustBench(tb, "bv_n400", 8))},
		{"qft_n30", mustQASM(tb, mustBench(tb, "qft_n30", 1))},
	}
}

// stricter reports whether err is one of the rejections the scanner adds to
// the oracle's language — the outside-input bugfixes, each with a text the
// old parser never produced, plus their two consequences that reuse an old
// text:
//
//   - operands must sit on the declared quantum register, written "q[i]"
//     with nothing after the bracket; a program declares one qreg, by name;
//   - keywords are whole tokens, so "barrierfoo q" or "qregx[2]" is no
//     longer a barrier or a declaration but an unsupported statement;
//   - a barrier keeps its operands, so they are parsed and range-checked;
//   - a gate is written with an angle exactly when the gate set gives it one:
//     "rz q[0]" is not rz(0), and "h(0.5) q[0]" is not an h with a stray
//     Param that fingerprints as a different program.
func stricter(err error) bool {
	msg := err.Error()
	for _, text := range []string{
		"undeclared quantum register",
		"is already declared",
		"after qubit reference",
		"names no register",
		"barrier operand:",
		"(barrier ",
		"needs an angle",
		"takes no angle",
	} {
		if strings.Contains(msg, text) {
			return true
		}
	}
	if _, stmt, ok := strings.Cut(msg, `unsupported statement "`); ok {
		for _, kw := range []string{"OPENQASM", "include", "qreg", "creg", "barrier"} {
			if strings.HasPrefix(stmt, kw) {
				return true
			}
		}
	}
	return false
}

// errLine is the N of a "qasm line N: ..." error, 0 for a validation error.
func errLine(err error) int {
	var n int
	if _, scanErr := fmt.Sscanf(err.Error(), "qasm line %d:", &n); scanErr != nil {
		return 0
	}
	return n
}

// oracleTooSlow reports whether src may declare a register so large that
// the oracle, which formats a map key per classical bit, would not return:
// a bracket holding more than five digits.
func oracleTooSlow(src string) bool {
	for i := 0; i < len(src); i++ {
		if src[i] != '[' {
			continue
		}
		j := i + 1
		if j < len(src) && src[j] == '+' {
			j++
		}
		digits := 0
		for j < len(src) && src[j] >= '0' && src[j] <= '9' {
			j++
			digits++
		}
		if digits > 5 {
			return true
		}
	}
	return false
}

// diffParse holds the scanner to the oracle on one source: the same verdict,
// the same circuit, the same error line — except where stricter() says the
// scanner refuses outside input the oracle let through, and except that the
// oracle turns every barrier into a global one.
func diffParse(t *testing.T, src string) {
	t.Helper()
	got, gotErr := circuit.ParseQASM(src)
	want, wantErr := circuit.RefParseQASM(src)
	switch {
	case gotErr == nil && wantErr != nil:
		t.Fatalf("scanner accepts what the oracle rejects (%v):\n%q", wantErr, src)
	case gotErr != nil && wantErr == nil:
		if !stricter(gotErr) {
			t.Fatalf("scanner rejects what the oracle accepts (%v):\n%q", gotErr, src)
		}
	case gotErr != nil:
		gl, wl := errLine(gotErr), errLine(wantErr)
		switch {
		case stricter(gotErr):
			// The scanner stopped at a statement the oracle let through; the
			// oracle's own complaint can only come later (or at validation).
			if wl != 0 && gl > wl {
				t.Fatalf("scanner error on line %d (%v) is past the oracle's on line %d (%v):\n%q", gl, gotErr, wl, wantErr, src)
			}
		case gl != wl:
			t.Fatalf("error lines differ: scanner %d (%v), oracle %d (%v):\n%q", gl, gotErr, wl, wantErr, src)
		case gl == 0 && gotErr.Error() != wantErr.Error():
			t.Fatalf("validation errors differ: scanner %q, oracle %q:\n%q", gotErr, wantErr, src)
		}
	default:
		if err := got.Validate(); err != nil {
			t.Fatalf("scanner returned an invalid circuit (%v):\n%q", err, src)
		}
		for i := range got.Ops {
			if got.Ops[i].Kind == circuit.Barrier {
				got.Ops[i].Qubits = nil // the oracle drops barrier operands
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("circuits differ:\nscanner %+v\noracle  %+v\n%q", got, want, src)
		}
	}
}

// TestParseQASMDifferentialFamilies runs the differential check on the warm
// families at full size, LF and CRLF.
func TestParseQASMDifferentialFamilies(t *testing.T) {
	for _, fam := range warmFamilies(t) {
		diffParse(t, fam.src)
		diffParse(t, strings.ReplaceAll(fam.src, "\n", "\r\n"))
	}
}

// FuzzParseQASMDifferential pits ParseQASM against the parser it replaced.
// The warm families seed it at reduced size (the mutator gets nowhere on a
// 67 KB input); TestParseQASMDifferentialFamilies covers them whole.
func FuzzParseQASMDifferential(f *testing.F) {
	for _, c := range []*circuit.Circuit{
		workloads.GHZ(8), mustBench(f, "bv_n400", 40), mustBench(f, "qft_n30", 3),
	} {
		src := mustQASM(f, c)
		f.Add(src)
		f.Add(strings.ReplaceAll(src, "\n", "\r\n"))
	}
	f.Add(mustQASM(f, mustBench(f, "dvqe", 1)))
	for _, angle := range circuit.AngleGrammarSpellings() {
		f.Add("OPENQASM 2.0;\nqreg q[2];\nrz(" + angle + ") q[0];\ncp(" + angle + ") q[0],q[1];\n")
	}
	for _, src := range []string{
		// one register of many bits, comments, several statements a line,
		// statements ended by the line instead of a semicolon
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3]; creg c[3];\nh q[0]; cx q[0],q[1]; // entangle\n// a comment line\ncx q[1] , q[2]\nmeasure q[0] -> c[0]; measure q[1]->c[1]\nif(c==1) x q[2];\n",
		"qreg q[2];\ncreg a[1];\ncreg b[1];\nmeasure q[0] -> a[0];\nmeasure q[1] -> b;\nx q[0];\nif(a==1) x q[0];\nif(b==1) x q[0];\nif(a == 0) z q[1];\n",
		"qreg q[2];creg c[2];creg c[1];measure q[0]->c[0];measure q[1]->c[1];if(c==1) x q[0];",
		"qreg q[4];\nswap q[0],q[3];\ncu1(pi/4) q[1],q[2];\nCX q[0],q[1];\nsdg q[2];\ntdg q[3];\nreset q[0];\nry(-0.5) q[1];\nrx(1e-3) q[2];\n",
		"\n\n  \t\nqreg q[1];\r\n\r\nh q[0];;\r\n;",
		// the divergences stricter() and the barrier normalisation cover
		"qreg q[3];\nbarrier q[0],q[1];\nbarrier q;\nbarrier q[2], q;\nbarrier;\n",
		"qreg q[3];\nbarrier q[3];\n",
		"qreg q[2];\nh nosuch[1];\n",
		"h q[0];\nqreg q[1];\n",
		"qreg q[2];\nqreg r[2];\nh q[0];\n",
		"qreg q[2];\nbarrierfoo q;\n",
		"qregx[2];\ncregfoo c[1];\nOPENQASMX;\nincludes;\n",
		"qreg [2];\n",
		"qreg q[2];\nh q[0] q[1];\n",
		"qreg q[2];\nrz (pi) q[0];\n",
		"qreg q[2];\nrz q[0];\ncp q[0],q[1];\n",
		"qreg q[2];\nh(0.5) q[0];\n",
		"qreg q[2];\ncx(1.5) q[0],q[1];\n",
		"qreg q[2];\nreset(0.3) q[0];\n",
		"qreg q[2];\ncp q[0],q[1];\n",
		// rejected by both, on the named line
		"qreg q[1];\nh q[0];\nfoo q[0];\n",
		"qreg q[1];\nh q[5];\nfoo q[0];\n",
		"qreg q[1];\nh q[5];\n",
		"qreg q[2];\ncx q[0],q[0];\n",
		"qreg q[1];\nh(theta) q[0];\n",
		"qreg q[1];\nmeasure q[0] -> c[0];\n",
		"qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0] -> c[0];\n",
		"qreg q[1];\ncreg c[1];\nif(c=1) x q[0];\n",
		"qreg q[1];\ncreg c[1];\nif(d==1) x q[0];\n",
		"qreg q[1];\ncreg c[1];\nif(c==1 x q[0];\n",
		"qreg q[1];\nh\tq[0];\n",
		"qreg q[1];\nh q[ 0 ];\n",
		"qreg q[x];\n",
		"qreg q;\n",
		"qreg q[1];\nrz(0 q[0];\n",
		"qreg q[1];\nh\n",
		"qreg q[1];\nh q[0],;\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if oracleTooSlow(src) {
			t.Skip()
		}
		diffParse(t, src)
	})
}

// TestParseQASMAllocs pins admission's allocation count: the circuit, its op
// slice, the two arenas, and the register table and its index as they grow
// — a number that follows the logarithm of the register count, not the op
// count (the replaced parser made 25 151 allocations on qft_n30).
func TestParseQASMAllocs(t *testing.T) {
	const ceiling = 64
	for _, fam := range warmFamilies(t) {
		c, err := circuit.ParseQASM(fam.src)
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := circuit.ParseQASM(fam.src); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d ops, %d bytes, %.0f allocs/parse", fam.name, len(c.Ops), len(fam.src), allocs)
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocs/parse, want <= %d", fam.name, allocs, ceiling)
		}
	}
}

// BenchmarkParseQASM times the scanner and the oracle side by side on the
// warm families; CI gates the in-process ratio on qft_n30.
func BenchmarkParseQASM(b *testing.B) {
	parsers := []struct {
		name  string
		parse func(string) (*circuit.Circuit, error)
	}{
		{"scanner", circuit.ParseQASM},
		{"oracle", circuit.RefParseQASM},
	}
	for _, fam := range warmFamilies(b) {
		for _, p := range parsers {
			b.Run(p.name+"/"+fam.name, func(b *testing.B) {
				b.SetBytes(int64(len(fam.src)))
				b.ReportAllocs()
				for b.Loop() {
					if _, err := p.parse(fam.src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
