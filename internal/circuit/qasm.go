package circuit

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// WriteQASM renders the circuit as OpenQASM 2.0 (§6.4.2 benchmarks are
// OpenQASM programs). One quantum register q[n] is used; every classical bit
// becomes a one-bit register c<i>[1] because OpenQASM 2.0 conditions test
// whole registers. Parity conditions on self-inverse gates (X/Z/Y — the only
// conditioned gates our transforms emit) are decomposed into a chain of
// single-bit conditioned gates, which is XOR-equivalent.
func WriteQASM(c *Circuit) (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	for i := 0; i < c.NumBits; i++ {
		fmt.Fprintf(&b, "creg c%d[1];\n", i)
	}
	emit := func(prefix, body string) {
		b.WriteString(prefix)
		b.WriteString(body)
		b.WriteString(";\n")
	}
	for _, op := range c.Ops {
		body, err := qasmBody(op)
		if err != nil {
			return "", err
		}
		switch {
		case op.Cond == nil:
			emit("", body)
		case len(op.Cond.Bits) == 1:
			emit(fmt.Sprintf("if(c%d==%d) ", op.Cond.Bits[0], op.Cond.Parity), body)
		default:
			if op.Kind != X && op.Kind != Z && op.Kind != Y {
				return "", fmt.Errorf("circuit: cannot express parity condition on %s in QASM", op.Kind)
			}
			// X^(b0 xor b1 xor ...): chain per-bit conditionals; if Parity is
			// 0 the correction is inverted by one unconditional application.
			if op.Cond.Parity == 0 {
				emit("", body)
			}
			for _, bit := range op.Cond.Bits {
				emit(fmt.Sprintf("if(c%d==1) ", bit), body)
			}
		}
	}
	return b.String(), nil
}

// qasmBody spells one op from its table row: mnemonic, the angle if the
// kind takes one, the operands ("q" alone for a global barrier) and a
// measurement's destination.
func qasmBody(op Op) (string, error) {
	r := op.Kind.row()
	if r.noQASM {
		return "", fmt.Errorf("circuit: cannot express %s in QASM", op.Kind)
	}
	var b strings.Builder
	b.WriteString(r.name)
	switch {
	case r.param != angle:
	case op.Symbolic():
		fmt.Fprintf(&b, "(%s)", op.Sym)
	default:
		fmt.Fprintf(&b, "(%.17g)", op.Param)
	}
	sep := " "
	for _, q := range op.Qubits {
		fmt.Fprintf(&b, "%sq[%d]", sep, q)
		sep = ","
	}
	if len(op.Qubits) == 0 {
		b.WriteString(" q")
	}
	if op.Kind == Measure {
		fmt.Fprintf(&b, " -> c%d[0]", op.CBit)
	}
	return b.String(), nil
}

// ParseQASM reads the OpenQASM 2.0 subset produced by WriteQASM (plus the
// common single-register "creg c[n]" style with c[i] bit references).
//
// It is a single pass over src: statements are located by index and parsed
// as substrings, every op's Qubits and every Condition's Bits are carved
// from one []int, every Condition from one slab, and each op runs Validate's
// per-op checks as it is appended — so the returned circuit is valid by
// construction and owns its arenas outright (the parser keeps no reference
// to them, and each carved slice is capacity-limited, so appending to one
// op's Qubits never reaches its neighbour's). Symbol names alias src.
//
// A statement ends at ';', at the end of its line or at a "//" comment.
// Syntax errors name their line ("qasm line N: ..."); a validation error
// ("circuit: op N ...") is reported only if the whole text scans, as when
// validation was a second pass.
func ParseQASM(src string) (*Circuit, error) {
	p := qasmParser{src: src, c: &Circuit{}}
	line := 1
	for pos := 0; pos < len(src); {
		switch src[pos] {
		case '\n':
			line++
			fallthrough
		case ';', ' ', '\t', '\r':
			pos++
			continue
		}
		end := pos
		for end < len(src) {
			// A lone slash belongs to the statement ("pi/2"); two open a comment.
			if b := src[end]; stmtEnd[b] && (b != '/' || end+1 < len(src) && src[end+1] == '/') {
				break
			}
			end++
		}
		if stmt := trimSpace(src[pos:end]); stmt != "" {
			p.pos = pos
			if err := p.stmt(stmt); err != nil {
				return nil, fmt.Errorf("qasm line %d: %w", line, err)
			}
		}
		if end < len(src) && src[end] == '/' {
			nl := strings.IndexByte(src[end:], '\n')
			if nl < 0 {
				break
			}
			end += nl
		}
		pos = end
	}
	if p.invalid != nil {
		return nil, p.invalid
	}
	return p.c, nil
}

// stmtEnd marks the bytes that can end a statement.
var stmtEnd = [256]bool{';': true, '\n': true, '/': true}

// qasmParser is the state of one ParseQASM call.
type qasmParser struct {
	src string
	pos int // offset in src of the statement being parsed
	c   *Circuit

	qreg string // the declared quantum register's name, "" before the qreg
	// Classical registers in declaration order. cregByName finds the latest
	// declaration of a name and prev chains to the one it shadows: a bit
	// reference resolves to the latest declaration that covers it.
	cregs      []creg
	cregByName map[string]int

	ints    []int       // backing store of every Qubits and Condition.Bits
	conds   []Condition // backing store of every Cond
	invalid error       // first checkOp failure
}

type creg struct {
	base, size int
	prev       int // earlier declaration of the same name, -1 if none
}

// trimSpace is strings.TrimSpace with the common case — ASCII text that
// needs no trimming — decided inline.
func trimSpace(s string) string {
	if n := len(s); n > 0 && s[0] > ' ' && s[0] < 0x80 && s[n-1] > ' ' && s[n-1] < 0x80 {
		return s
	}
	return strings.TrimSpace(s)
}

// stmt parses one trimmed, non-empty statement. The five keywords are whole
// tokens — "barrierfoo q" is not a barrier — and no gate mnemonic begins
// with one, so a keyword that runs on into other text is an error here.
func (p *qasmParser) stmt(s string) error {
	kw := ""
	switch s[0] {
	case 'O':
		kw = "OPENQASM"
	case 'i':
		kw = "include"
	case 'q':
		kw = "qreg"
	case 'c':
		kw = "creg"
	case 'b':
		kw = "barrier"
	}
	if kw == "" || !strings.HasPrefix(s, kw) {
		return p.gate(s)
	}
	if rest := s[len(kw):]; rest != "" {
		r, _ := utf8.DecodeRuneInString(rest)
		if !unicode.IsSpace(r) && !(r == '"' && kw == "include") {
			return fmt.Errorf("unsupported statement %q", s)
		}
	}
	switch kw {
	case "qreg", "creg":
		return p.declare(s, kw)
	case "barrier":
		return p.barrier(s[len(kw):])
	}
	return nil // the header: version and includes carry nothing we use
}

// declare parses "qreg name[n]" or "creg name[n]"; kw is the keyword s
// opens with. The name is the last word before the bracket.
func (p *qasmParser) declare(s, kw string) error {
	open := strings.IndexByte(s, '[')
	close := strings.IndexByte(s, ']')
	if open < 0 || close < open {
		return fmt.Errorf("bad register decl %q", s)
	}
	n, err := strconv.Atoi(s[open+1 : close])
	if err != nil {
		return err
	}
	name := strings.TrimSpace(s[len(kw):open])
	if name == "" {
		return fmt.Errorf("register declaration %q names no register", s)
	}
	if i := strings.LastIndexFunc(name, unicode.IsSpace); i >= 0 {
		_, w := utf8.DecodeRuneInString(name[i:])
		name = name[i+w:]
	}
	if kw == "qreg" {
		if p.qreg != "" {
			return fmt.Errorf("qreg %q: quantum register %q is already declared (one qreg per program)", name, p.qreg)
		}
		p.qreg, p.c.NumQubits = name, n
		return nil
	}
	if n <= 0 {
		return nil
	}
	if p.cregByName == nil {
		p.cregByName = make(map[string]int)
	}
	prev, ok := p.cregByName[name]
	if !ok {
		prev = -1
	}
	p.cregByName[name] = len(p.cregs)
	p.cregs = append(p.cregs, creg{base: p.c.NumBits, size: n, prev: prev})
	p.c.NumBits += n
	return nil
}

// bit resolves a classical bit reference: "name[i]", or the bare name of a
// one-bit register.
func (p *qasmParser) bit(ref string) (int, bool) {
	name, idx := ref, -1
	if n := len(ref); n > 0 && ref[n-1] == ']' {
		open := strings.IndexByte(ref, '[')
		if open < 0 {
			return 0, false
		}
		digits := ref[open+1 : n-1]
		// Only the canonical decimal spelling names a bit.
		if digits == "" || len(digits) > 18 || digits[0] == '0' && len(digits) > 1 {
			return 0, false
		}
		idx = 0
		for i := 0; i < len(digits); i++ {
			d := digits[i] - '0'
			if d > 9 {
				return 0, false
			}
			idx = idx*10 + int(d)
		}
		name = ref[:open]
	}
	i, ok := p.cregByName[name]
	if !ok {
		return 0, false
	}
	for ; i >= 0; i = p.cregs[i].prev {
		switch r := p.cregs[i]; {
		case idx >= 0 && idx < r.size:
			return r.base + idx, true
		case idx < 0 && r.size == 1:
			return r.base, true
		}
	}
	return 0, false
}

// reserve sizes the op slice and the arenas, once, from what is left of the
// source when the first op is met (the declarations are behind it by then).
// Every op but the last needs a ';' or a line of its own, every qubit
// operand a '[' and every condition an "if(", so the arenas never regrow
// and Ops regrows only for programs that omit semicolons. The shortest op
// is seven bytes with its terminator ("x q[0];"), which bounds what a body
// of nothing but semicolons can make the parser allocate.
func (p *qasmParser) reserve() {
	rest := p.src[p.pos:]
	conds := strings.Count(rest, "if(")
	p.c.Ops = make([]Op, 0, min(strings.Count(rest, ";"), len(rest)/7)+1)
	p.ints = make([]int, 0, strings.Count(rest, "[")+conds)
	p.conds = make([]Condition, 0, conds)
}

// carve returns the ints appended since mark as a slice of their own.
func (p *qasmParser) carve(mark int) []int {
	return p.ints[mark:len(p.ints):len(p.ints)]
}

// emit appends an op, written where it will live rather than copied there,
// and runs Validate's checks on it.
func (p *qasmParser) emit(kind Kind, qubits []int, cbit int, cond *Condition, param float64, sym string) {
	p.c.Ops = append(p.c.Ops, Op{})
	i := len(p.c.Ops) - 1
	op := &p.c.Ops[i]
	op.Kind, op.Qubits, op.CBit, op.Cond, op.Param, op.Sym = kind, qubits, cbit, cond, param, sym
	if p.invalid == nil {
		p.invalid = p.c.checkOp(i, op)
	}
}

// qubit parses one "q[i]" operand on the declared quantum register.
func (p *qasmParser) qubit(ref string) (int, error) {
	// The spelling WriteQASM emits, decided without a search.
	if n, r := len(p.qreg), len(ref); n > 0 && r > n+2 && r <= n+20 && ref[n] == '[' && ref[r-1] == ']' && ref[:n] == p.qreg {
		v := 0
		for i := n + 1; i < r-1; i++ {
			d := ref[i] - '0'
			if d > 9 {
				return p.qubitSlow(ref)
			}
			v = v*10 + int(d)
		}
		return v, nil
	}
	return p.qubitSlow(ref)
}

func (p *qasmParser) qubitSlow(ref string) (int, error) {
	open := strings.IndexByte(ref, '[')
	close := strings.IndexByte(ref, ']')
	if open < 0 || close < open {
		return 0, fmt.Errorf("bad qubit reference %q", ref)
	}
	v, err := strconv.Atoi(ref[open+1 : close])
	if err != nil {
		return 0, err
	}
	if name := strings.TrimSpace(ref[:open]); p.qreg == "" || name != p.qreg {
		return 0, fmt.Errorf("undeclared quantum register %q", name)
	}
	if rest := strings.TrimSpace(ref[close+1:]); rest != "" {
		return 0, fmt.Errorf("unexpected %q after qubit reference %q", rest, ref[:close+1])
	}
	return v, nil
}

// barrier parses the operand list after the keyword: any mix of "q[i]" and
// the bare register name, which (like an empty list) makes the barrier
// global.
func (p *qasmParser) barrier(args string) error {
	if p.c.Ops == nil {
		p.reserve()
	}
	mark := len(p.ints)
	global := false
	args = strings.TrimSpace(args)
	for more := args != ""; more; {
		var arg string
		arg, args, more = strings.Cut(args, ",")
		if arg = strings.TrimSpace(arg); arg != "" && arg == p.qreg {
			global = true
			continue
		}
		if strings.IndexByte(arg, '[') < 0 {
			return fmt.Errorf("barrier operand: undeclared quantum register %q", arg)
		}
		q, err := p.qubit(arg)
		if err != nil {
			return fmt.Errorf("barrier operand: %w", err)
		}
		p.ints = append(p.ints, q)
	}
	var qubits []int
	if global {
		p.ints = p.ints[:mark]
	} else if len(p.ints) > mark {
		qubits = p.carve(mark)
	}
	p.emit(Barrier, qubits, -1, nil, 0, "")
	return nil
}

// gate parses "[if(c==v)] name[(angle)] operands" and "measure q[i] -> c[j]".
func (p *qasmParser) gate(s string) error {
	if p.c.Ops == nil {
		p.reserve()
	}
	var cond *Condition
	if len(s) > 2 && s[0] == 'i' && s[1] == 'f' && s[2] == '(' {
		close := strings.IndexByte(s, ')')
		if close < 0 {
			return errors.New("unterminated if")
		}
		inner := s[3:close]
		eq := strings.Index(inner, "==")
		if eq < 0 {
			return errors.New("if without ==")
		}
		reg := strings.TrimSpace(inner[:eq])
		val, err := strconv.Atoi(strings.TrimSpace(inner[eq+2:]))
		if err != nil {
			return err
		}
		bit, ok := p.bit(reg)
		if !ok {
			return fmt.Errorf("unknown creg %q", reg)
		}
		mark := len(p.ints)
		p.ints = append(p.ints, bit)
		p.conds = append(p.conds, Condition{Bits: p.carve(mark), Parity: val & 1})
		cond = &p.conds[len(p.conds)-1]
		s = strings.TrimSpace(s[close+1:])
	}

	// The mnemonic runs to the first space or paren; a paren group is taken
	// from the whole statement, so "rz( pi / 2 ) q[0]" is legal.
	i := 0
	for i < len(s) && s[i] != ' ' && s[i] != '(' {
		i++
	}
	name, args := s[:i], ""
	var param float64
	var sym string
	switch {
	case i == len(s):
	case s[i] == ' ':
		args = s[i+1:]
	default:
		close := strings.IndexByte(s, ')')
		if close < i {
			return fmt.Errorf("unterminated angle in %q", s)
		}
		v, sy, err := parseAngle(s[i+1 : close])
		if err != nil {
			return err
		}
		param, sym = v, sy
		args = strings.TrimSpace(s[close+1:])
	}

	kind, ok := mnemonics[name]
	if !ok {
		return fmt.Errorf("unsupported statement %q", s)
	}
	// The gate set decides whether a parenthesis belongs: "rz q[0]" is not
	// rz(0), and "h(0.5) q[0]" is not an h that fingerprints apart.
	switch hasAngle, wantAngle := i < len(s) && s[i] == '(', kind.row().param == angle; {
	case wantAngle && !hasAngle:
		return fmt.Errorf("gate %q needs an angle: %q", name, s)
	case hasAngle && !wantAngle:
		return fmt.Errorf("gate %q takes no angle: %q", name, s)
	}
	mark := len(p.ints)
	if kind == Measure {
		from, to, ok := strings.Cut(args, "->")
		if !ok || strings.Contains(to, "->") {
			return fmt.Errorf("bad measure %q", s)
		}
		q, err := p.qubit(strings.TrimSpace(from))
		if err != nil {
			return err
		}
		to = strings.TrimSpace(to)
		bit, ok := p.bit(to)
		if !ok {
			return fmt.Errorf("unknown classical bit %q", to)
		}
		p.ints = append(p.ints, q)
		p.emit(Measure, p.carve(mark), bit, cond, 0, "")
		return nil
	}
	for more := true; more; {
		comma := 0
		for comma < len(args) && args[comma] != ',' {
			comma++
		}
		arg := args[:comma]
		if more = comma < len(args); more {
			args = args[comma+1:]
		}
		q, err := p.qubit(trimSpace(arg))
		if err != nil {
			return err
		}
		p.ints = append(p.ints, q)
	}
	p.emit(kind, p.carve(mark), -1, cond, param, sym)
	return nil
}

// isIdent reports whether s is a legal parameter identifier:
// [A-Za-z_][A-Za-z0-9_]*.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !identByte(s[i], i > 0) {
			return false
		}
	}
	return true
}

func identByte(b byte, digitOK bool) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || digitOK && b >= '0' && b <= '9'
}

// squeeze removes the spaces from s (s itself when it has none).
func squeeze(s string) string {
	if strings.IndexByte(s, ' ') < 0 {
		return s
	}
	return strings.ReplaceAll(s, " ", "")
}

// parseAngle evaluates the QASM angle grammar: an optional leading sign
// followed by a product/quotient chain whose factors are float literals or
// "pi" — so "pi", "pi/2", "-pi/4", "2*pi", "pi*2", "3*pi/2" and plain
// numbers like "0.25" or "1e-3" all evaluate. A bare identifier that is
// not "pi" names a symbolic parameter and is returned as sym (val 0).
// Spaces are insignificant anywhere ("pi / 2"); the text is evaluated where
// it lies, and only a token written with a space inside it is copied.
// Errors name the offending token and its offset within the angle text,
// both as spelled without spaces.
func parseAngle(s string) (val float64, sym string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, "", errors.New("empty angle")
	}
	ident := true
	for i := 0; i < len(s) && ident; i++ {
		ident = s[i] == ' ' || identByte(s[i], i > 0)
	}
	if ident {
		// Reserved words never become symbols: a misspelled constant must
		// stay a parse error here, not resurface later as a confusing
		// "unbound parameter PI" at job admission.
		switch name := squeeze(s); strings.ToLower(name) {
		case "pi":
			if name != "pi" {
				return 0, "", fmt.Errorf("bad angle %q: the constant is lowercase \"pi\"", name)
			}
		case "nan", "inf", "infinity":
			return 0, "", fmt.Errorf("bad angle %q: angles must be finite", name)
		default:
			return 0, name, nil
		}
	}
	i := 0
	neg := false
	switch s[0] {
	case '-':
		neg, i = true, 1
	case '+':
		i = 1
	}
	// Evaluate factor (('*'|'/') factor)* left to right. Factors never
	// contain '*' or '/', so a float's exponent sign ("1e-3") survives.
	var acc float64
	for op := byte(0); ; {
		end := i
		for end < len(s) && s[end] != '*' && s[end] != '/' {
			end++
		}
		tok := squeeze(strings.Trim(s[i:end], " "))
		var f float64
		switch tok {
		case "":
			return 0, "", angleError(s, i, tok)
		case "pi":
			f = math.Pi
		default:
			if f, err = strconv.ParseFloat(tok, 64); err != nil {
				return 0, "", angleError(s, i, tok)
			}
		}
		switch op {
		case 0:
			acc = f
		case '*':
			acc *= f
		default:
			acc /= f
		}
		if end == len(s) {
			break
		}
		op, i = s[end], end+1
	}
	if neg {
		acc = -acc
	}
	if math.IsNaN(acc) || math.IsInf(acc, 0) {
		return 0, "", fmt.Errorf("bad angle %q: evaluates to %v (angles must be finite)", squeeze(s), acc)
	}
	return acc, "", nil
}

// angleError reports the factor tok (empty = missing) that starts at s[at].
func angleError(s string, at int, tok string) error {
	off := at - strings.Count(s[:at], " ")
	if tok != "" {
		return fmt.Errorf("bad angle %q: unexpected %q at offset %d", squeeze(s), tok, off)
	}
	return fmt.Errorf("bad angle %q: missing factor at offset %d", squeeze(s), off)
}
