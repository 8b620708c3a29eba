package circuit

// The QASM parser as it stood before the single-pass scanner replaced it,
// kept verbatim (identifiers prefixed ref, nothing else changed) as the
// differential oracle for FuzzParseQASMDifferential and the baseline of
// BenchmarkParseQASM — the reference.go idiom of internal/quantum, in a
// _test.go file because nothing outside the tests may call it: non-test
// code holds exactly one QASM parser.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// refParseQASM reads the OpenQASM 2.0 subset produced by WriteQASM (plus the
// common single-register "creg c[n]" style with c[i] bit references).
func refParseQASM(src string) (*Circuit, error) {
	c := &Circuit{}
	bitOf := map[string]int{} // "c3" or "c[3]" -> circuit bit index
	lineNo := 0
	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := strings.TrimSpace(raw)
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := refParseStmt(c, bitOf, stmt); err != nil {
				return nil, fmt.Errorf("qasm line %d: %w", lineNo, err)
			}
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func refParseStmt(c *Circuit, bitOf map[string]int, stmt string) error {
	switch {
	case strings.HasPrefix(stmt, "OPENQASM"), strings.HasPrefix(stmt, "include"):
		return nil
	case strings.HasPrefix(stmt, "qreg"):
		n, err := refParseRegSize(stmt)
		if err != nil {
			return err
		}
		c.NumQubits = n
		return nil
	case strings.HasPrefix(stmt, "creg"):
		name, n, err := refParseRegDecl(stmt)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%s[%d]", name, i)
			bitOf[key] = c.NumBits
			if n == 1 {
				bitOf[name] = c.NumBits
			}
			c.NumBits++
		}
		return nil
	case strings.HasPrefix(stmt, "barrier"):
		c.BarrierAll()
		return nil
	}
	var cond *Condition
	if strings.HasPrefix(stmt, "if(") {
		close := strings.Index(stmt, ")")
		if close < 0 {
			return fmt.Errorf("unterminated if")
		}
		inner := stmt[3:close]
		eq := strings.Index(inner, "==")
		if eq < 0 {
			return fmt.Errorf("if without ==")
		}
		reg := strings.TrimSpace(inner[:eq])
		val, err := strconv.Atoi(strings.TrimSpace(inner[eq+2:]))
		if err != nil {
			return err
		}
		bit, ok := bitOf[reg]
		if !ok {
			return fmt.Errorf("unknown creg %q", reg)
		}
		cond = &Condition{Bits: []int{bit}, Parity: val & 1}
		stmt = strings.TrimSpace(stmt[close+1:])
	}

	name, rest, _ := strings.Cut(stmt, " ")
	var param float64
	var sym string
	if open := strings.Index(name, "("); open >= 0 {
		// Take the paren group from the whole statement, not the first
		// space-split token: "rz( pi / 2 ) q[0]" is legal QASM, and an
		// unterminated "rz(0" must be an error, not a slice panic (the
		// angle-grammar fuzzer found the latter).
		open = strings.Index(stmt, "(")
		close := strings.Index(stmt, ")")
		if close < open {
			return fmt.Errorf("unterminated angle in %q", stmt)
		}
		v, s, err := refParseAngle(stmt[open+1 : close])
		if err != nil {
			return err
		}
		param, sym = v, s
		name = stmt[:open]
		rest = strings.TrimSpace(stmt[close+1:])
	}
	args := strings.Split(rest, ",")
	qubits := make([]int, 0, 2)
	if name != "measure" {
		for _, a := range args {
			q, err := refParseIndex(strings.TrimSpace(a))
			if err != nil {
				return err
			}
			qubits = append(qubits, q)
		}
	}
	kinds := map[string]Kind{
		"h": H, "x": X, "y": Y, "z": Z, "s": S, "sdg": Sdg, "t": T, "tdg": Tdg, "reset": Reset,
		"rx": RX, "ry": RY, "rz": RZ, "cp": CPhase, "cu1": CPhase,
		"cx": CNOT, "CX": CNOT, "cz": CZ, "swap": SWAP,
	}
	if k, ok := kinds[name]; ok {
		op := Op{Kind: k, Qubits: qubits, Param: param, CBit: -1, Cond: cond, Sym: sym}
		c.Ops = append(c.Ops, op)
		return nil
	}
	if name == "measure" {
		parts := strings.Split(rest, "->")
		if len(parts) != 2 {
			return fmt.Errorf("bad measure %q", stmt)
		}
		q, err := refParseIndex(strings.TrimSpace(parts[0]))
		if err != nil {
			return err
		}
		key := strings.TrimSpace(parts[1])
		bit, ok := bitOf[key]
		if !ok {
			return fmt.Errorf("unknown classical bit %q", key)
		}
		c.Ops = append(c.Ops, Op{Kind: Measure, Qubits: []int{q}, CBit: bit, Cond: cond})
		return nil
	}
	return fmt.Errorf("unsupported statement %q", stmt)
}

func refParseRegSize(stmt string) (int, error) {
	_, n, err := refParseRegDecl(stmt)
	return n, err
}

func refParseRegDecl(stmt string) (string, int, error) {
	open := strings.Index(stmt, "[")
	close := strings.Index(stmt, "]")
	if open < 0 || close < open {
		return "", 0, fmt.Errorf("bad register decl %q", stmt)
	}
	n, err := strconv.Atoi(stmt[open+1 : close])
	if err != nil {
		return "", 0, err
	}
	fields := strings.Fields(stmt[:open])
	name := fields[len(fields)-1]
	return name, n, nil
}

func refParseIndex(ref string) (int, error) {
	open := strings.Index(ref, "[")
	close := strings.Index(ref, "]")
	if open < 0 || close < open {
		return 0, fmt.Errorf("bad qubit reference %q", ref)
	}
	return strconv.Atoi(ref[open+1 : close])
}

// refIsIdent reports whether s is a legal parameter identifier:
// [A-Za-z_][A-Za-z0-9_]*.
func refIsIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// refParseAngle evaluates the QASM angle grammar: an optional leading sign
// followed by a product/quotient chain whose factors are float literals or
// "pi" — so "pi", "pi/2", "-pi/4", "2*pi", "pi*2", "3*pi/2" and plain
// numbers like "0.25" or "1e-3" all evaluate. A bare identifier that is
// not "pi" names a symbolic parameter and is returned as sym (val 0).
// Errors name the offending token and its offset within the angle text.
func refParseAngle(s string) (val float64, sym string, err error) {
	expr := strings.ReplaceAll(strings.TrimSpace(s), " ", "")
	if expr == "" {
		return 0, "", fmt.Errorf("empty angle")
	}
	if expr != "pi" && refIsIdent(expr) {
		// Reserved words never become symbols: a misspelled constant must
		// stay a parse error here, not resurface later as a confusing
		// "unbound parameter PI" at job admission.
		switch strings.ToLower(expr) {
		case "pi":
			return 0, "", fmt.Errorf("bad angle %q: the constant is lowercase \"pi\"", expr)
		case "nan", "inf", "infinity":
			return 0, "", fmt.Errorf("bad angle %q: angles must be finite", expr)
		}
		return 0, expr, nil
	}
	rest := expr
	neg := false
	switch rest[0] {
	case '-':
		neg, rest = true, rest[1:]
	case '+':
		rest = rest[1:]
	}
	badAt := func(tok string) error {
		off := len(expr) - len(rest)
		if tok != "" {
			return fmt.Errorf("bad angle %q: unexpected %q at offset %d", expr, tok, off)
		}
		return fmt.Errorf("bad angle %q: missing factor at offset %d", expr, off)
	}
	// Evaluate factor (('*'|'/') factor)* left to right. Factors never
	// contain '*' or '/', so a float's exponent sign ("1e-3") survives.
	factor := func() (float64, error) {
		end := strings.IndexAny(rest, "*/")
		tok := rest
		if end >= 0 {
			tok = rest[:end]
		}
		if tok == "" {
			return 0, badAt("")
		}
		if tok == "pi" {
			rest = rest[len(tok):]
			return math.Pi, nil
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return 0, badAt(tok)
		}
		rest = rest[len(tok):]
		return v, nil
	}
	acc, err := factor()
	if err != nil {
		return 0, "", err
	}
	for rest != "" {
		op := rest[0]
		rest = rest[1:]
		f, err := factor()
		if err != nil {
			return 0, "", err
		}
		if op == '*' {
			acc *= f
		} else {
			acc /= f
		}
	}
	if neg {
		acc = -acc
	}
	if math.IsNaN(acc) || math.IsInf(acc, 0) {
		return 0, "", fmt.Errorf("bad angle %q: evaluates to %v (angles must be finite)", expr, acc)
	}
	return acc, "", nil
}
