package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates HISQ assembly text into a Program. The accepted syntax
// is the one used in the paper's Figure 12 listings, extended with labels:
//
//	# comment            (also // and ;)
//	loop:                label
//	addi $1,$1,40        registers as $n, xn, or ABI names
//	cw.i.i 21,2          immediate port, immediate codeword
//	lw $3,8($2)          load/store with displacement
//	bne $1,$2,-28        branch to byte offset ...
//	bne $1,$2,loop       ... or to a label
//	jal $0,-44
//	li $2,120            pseudo: expands to addi / lui+addi
//	nop / mv / j / halt  pseudo-instructions
//
// Numeric branch/jump operands are byte offsets relative to the branch
// instruction itself (RISC-V semantics); instructions are 4 bytes.
func Assemble(src string) (*Program, error) {
	type line struct {
		num    int
		fields []string // mnemonic + operands
	}
	labels := map[string]int{}
	var lines []line
	idx := 0
	for n, raw := range strings.Split(src, "\n") {
		s := stripComment(raw)
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		// Peel off any leading labels ("a: b: instr" is legal).
		for {
			c := strings.IndexByte(s, ':')
			if c < 0 {
				break
			}
			name := strings.TrimSpace(s[:c])
			if !isIdent(name) {
				break
			}
			if _, dup := labels[name]; dup {
				return nil, fmt.Errorf("isa: line %d: duplicate label %q", n+1, name)
			}
			labels[name] = idx
			s = strings.TrimSpace(s[c+1:])
		}
		if s == "" {
			continue
		}
		mnem, rest, _ := strings.Cut(s, " ")
		fields := []string{strings.ToLower(strings.TrimSpace(mnem))}
		rest = strings.TrimSpace(rest)
		if rest != "" {
			for _, f := range strings.Split(rest, ",") {
				fields = append(fields, strings.TrimSpace(f))
			}
		}
		lines = append(lines, line{num: n + 1, fields: fields})
		idx += pseudoSize(fields)
	}

	p := &Program{Symbols: labels}
	for _, ln := range lines {
		ins, err := parseInstr(ln.fields, len(p.Instrs), labels)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", ln.num, err)
		}
		p.Instrs = append(p.Instrs, ins...)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustAssemble is Assemble for known-good sources (tests, examples); it
// panics on error.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(s string) string {
	for _, sep := range []string{"#", "//", ";"} {
		if i := strings.Index(s, sep); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// pseudoSize returns how many machine instructions a source line expands to.
func pseudoSize(fields []string) int {
	if fields[0] == "li" && len(fields) == 3 {
		if v, err := parseImm(fields[2]); err == nil {
			return len(LoadImm(0, v))
		}
	}
	return 1
}

func parseReg(s string) (uint8, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if n, ok := abiNames[t]; ok {
		return n, nil
	}
	if len(t) >= 2 && (t[0] == '$' || t[0] == 'x') {
		v, err := strconv.Atoi(t[1:])
		if err == nil && v >= 0 && v <= 31 {
			return uint8(v), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

func parseImm(s string) (int32, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if v < -(1<<31) || v > (1<<31)-1 {
		return 0, fmt.Errorf("immediate %q out of 32-bit range", s)
	}
	return int32(v), nil
}

// parseMem parses "imm(reg)" operands of loads and stores.
func parseMem(s string) (int32, uint8, error) {
	open := strings.IndexByte(s, '(')
	close := strings.LastIndexByte(s, ')')
	if open < 0 || close < open {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	offStr := strings.TrimSpace(s[:open])
	var off int32
	if offStr != "" {
		v, err := parseImm(offStr)
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	reg, err := parseReg(s[open+1 : close])
	if err != nil {
		return 0, 0, err
	}
	return off, reg, nil
}

// LoadImm is the li expansion: the instructions that set rd to v. One addi
// reaches a 12-bit v; any other takes lui rd,hi ; addi rd,rd,lo with hi
// rounded so that the sign-extended lo lands on the exact value.
func LoadImm(rd uint8, v int32) []Instr { return AppendLoadImm(nil, rd, v) }

// AppendLoadImm appends the li expansion of rd = v to dst.
func AppendLoadImm(dst []Instr, rd uint8, v int32) []Instr {
	if v >= -2048 && v <= 2047 {
		return append(dst, Instr{Op: OpADDI, Rd: rd, Imm: v})
	}
	lo := v << 20 >> 20
	hi := (v - lo) >> 12 & 0xFFFFF
	return append(dst, Instr{Op: OpLUI, Rd: rd, Imm: hi}, Instr{Op: OpADDI, Rd: rd, Rs1: rd, Imm: lo})
}

// parseInstr turns one source line (mnemonic + operands) into instructions,
// reading each operand as the spelling's syntax string says.
func parseInstr(f []string, at int, labels map[string]int) ([]Instr, error) {
	sp, ok := spellings[f[0]]
	if !ok {
		return nil, fmt.Errorf("unknown mnemonic %q", f[0])
	}
	if len(f)-1 != len(sp.syntax) {
		return nil, fmt.Errorf("%s: want %d operands, got %d", f[0], len(sp.syntax), len(f)-1)
	}
	in := Instr{Op: sp.op}
	for i, s := range f[1:] {
		var err error
		switch sp.syntax[i] {
		case 'd':
			in.Rd, err = parseReg(s)
		case '1':
			in.Rs1, err = parseReg(s)
		case '2':
			in.Rs2, err = parseReg(s)
		case 'p':
			var port int32
			if port, err = parseImm(s); err == nil && (port < 0 || port > 31) {
				hint := ""
				if sp.op == OpCWII {
					hint = " (use cw.r.*)"
				}
				err = fmt.Errorf("%s: immediate port %d out of range 0..31%s", f[0], port, hint)
			}
			in.Rd = uint8(port)
		case 'i':
			in.Imm, err = parseImm(s)
		case 'l':
			if tgt, isLabel := labels[s]; isLabel {
				in.Imm = int32((tgt - at) * 4)
			} else {
				in.Imm, err = parseImm(s)
			}
		case 'm':
			in.Imm, in.Rs1, err = parseMem(s)
		}
		if err != nil {
			return nil, err
		}
	}
	if f[0] == "li" {
		return LoadImm(in.Rd, in.Imm), nil
	}
	// What assembles must encode: hisq-run executes what Assemble returns,
	// hisq-asm encodes it, and they must accept the same programs.
	if err := checkImm(in); err != nil {
		return nil, err
	}
	return []Instr{in}, nil
}
