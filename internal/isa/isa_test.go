package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fig12Control is the control-board program from the paper's Figure 12,
// verbatim (comments elided).
const fig12Control = `
addi $2,$0,120
addi $1,$0,0
waiti 1
cw.i.i 21,2
addi $1,$1,40
cw.i.i 20,2
waitr $1
sync 2
waiti 8
cw.i.i 7,1
waiti 50
bne $1,$2,-28
jal $0,-44
`

const fig12Readout = `
waiti 2
sync 1
waiti 6
waiti 57
cw.i.i 5,1
jal $0,-20
`

func TestAssembleFig12Programs(t *testing.T) {
	ctrl, err := Assemble(fig12Control)
	if err != nil {
		t.Fatalf("control board: %v", err)
	}
	if ctrl.Len() != 13 {
		t.Fatalf("control board: %d instrs, want 13", ctrl.Len())
	}
	// Spot-check key instructions.
	if in := ctrl.Instrs[0]; in.Op != OpADDI || in.Rd != 2 || in.Rs1 != 0 || in.Imm != 120 {
		t.Errorf("instr 0 = %v", in)
	}
	if in := ctrl.Instrs[3]; in.Op != OpCWII || in.Rd != 21 || in.Imm != 2 {
		t.Errorf("instr 3 = %v", in)
	}
	if in := ctrl.Instrs[6]; in.Op != OpWAITR || in.Rs1 != 1 {
		t.Errorf("instr 6 = %v", in)
	}
	if in := ctrl.Instrs[7]; in.Op != OpSYNC || in.Imm != 2 {
		t.Errorf("instr 7 = %v", in)
	}
	// bne $1,$2,-28 jumps back 7 instructions: 11 + (-28/4) = 4.
	if in := ctrl.Instrs[11]; in.Op != OpBNE || in.Imm != -28 {
		t.Errorf("instr 11 = %v", in)
	}
	// jal $0,-44 jumps back 11 instructions: 12 - 11 = 1.
	if in := ctrl.Instrs[12]; in.Op != OpJAL || in.Imm != -44 {
		t.Errorf("instr 12 = %v", in)
	}

	ro, err := Assemble(fig12Readout)
	if err != nil {
		t.Fatalf("readout board: %v", err)
	}
	if ro.Len() != 6 {
		t.Fatalf("readout board: %d instrs, want 6", ro.Len())
	}
}

func TestAssembleLabels(t *testing.T) {
	p, err := Assemble(`
		li $1, 0
	loop:
		addi $1, $1, 1
		bne $1, $2, loop
		j end
		addi $3, $0, 99
	end:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	// bne at index 2 targets index 1: offset (1-2)*4 = -4.
	if p.Instrs[2].Imm != -4 {
		t.Errorf("bne offset = %d, want -4", p.Instrs[2].Imm)
	}
	// j at index 3 targets index 5: offset +8.
	if p.Instrs[3].Op != OpJAL || p.Instrs[3].Imm != 8 {
		t.Errorf("j = %v", p.Instrs[3])
	}
	if p.Symbols["loop"] != 1 || p.Symbols["end"] != 5 {
		t.Errorf("symbols = %v", p.Symbols)
	}
}

func TestAssembleLiExpansion(t *testing.T) {
	p, err := Assemble("li $5, 75000") // 300 us in cycles; needs lui+addi
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Instrs[0].Op != OpLUI || p.Instrs[1].Op != OpADDI {
		t.Fatalf("expansion = %v", p.Instrs)
	}
	// Verify the expansion reconstructs the value.
	v := uint32(p.Instrs[0].Imm) << 12
	v += uint32(p.Instrs[1].Imm)
	if v != 75000 {
		t.Fatalf("li reconstructs %d, want 75000", v)
	}
	// Negative large immediate.
	p2, err := Assemble("li $5, -100000")
	if err != nil {
		t.Fatal(err)
	}
	v2 := uint32(p2.Instrs[0].Imm) << 12
	v2 += uint32(p2.Instrs[1].Imm)
	if int32(v2) != -100000 {
		t.Fatalf("li reconstructs %d, want -100000", int32(v2))
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frobnicate $1,$2",     // unknown mnemonic
		"addi $1,$2",           // missing operand
		"addi $32,$0,1",        // bad register
		"cw.i.i 99,1",          // port out of immediate range
		"bne $1,$2,nosuch",     // undefined label -> parse as imm fails
		"waiti 1\nwaiti 40000", // imm too large for I-type encode
		"loop: nop\nloop: nop", // duplicate label
		"jal $0,7",             // misaligned target
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q): expected error", src)
		}
	}
}

// What assembles must encode, or hisq-run would execute a program hisq-asm
// refuses: an immediate too wide for its instruction's form is an assembly
// error naming the line, and the widest that fits still assembles.
func TestAssembleChecksImmediateWidth(t *testing.T) {
	for src, want := range map[string]string{
		"waiti 1\nwaiti 40000": "isa: line 2: I-immediate 40000 out of range",
		"addi $1,$1,5000":      "isa: line 1: I-immediate 5000 out of range",
		"nop\nsw $1,-2049($2)": "isa: line 2: S-immediate -2049 out of range",
		"slli $1,$1,32":        "isa: line 1: shift amount 32 out of range",
		"lui $1,0x100000":      "isa: line 1: U-immediate 1048576 out of range",
	} {
		if _, err := Assemble(src); err == nil || err.Error() != want {
			t.Errorf("Assemble(%q) = %v, want %s", src, err, want)
		}
	}
	p, err := Assemble("waiti 2047\naddi $1,$1,-2048\nslli $1,$1,31\nlui $1,0xFFFFF\nli $2,40000\nwaitr $2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeProgram(p); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleRegisterAliases(t *testing.T) {
	p, err := Assemble("add x5, t0, a0\naddi zero, ra, 1")
	if err != nil {
		t.Fatal(err)
	}
	if in := p.Instrs[0]; in.Rd != 5 || in.Rs1 != 5 || in.Rs2 != 10 {
		t.Errorf("aliases: %v", in)
	}
	if in := p.Instrs[1]; in.Rd != 0 || in.Rs1 != 1 {
		t.Errorf("aliases: %v", in)
	}
}

func TestLoadStoreSyntax(t *testing.T) {
	p, err := Assemble("lw $3, 8($2)\nsw $3, -4($2)\nlw $4, ($2)")
	if err != nil {
		t.Fatal(err)
	}
	if in := p.Instrs[0]; in.Op != OpLW || in.Rd != 3 || in.Rs1 != 2 || in.Imm != 8 {
		t.Errorf("lw = %v", in)
	}
	if in := p.Instrs[1]; in.Op != OpSW || in.Rs2 != 3 || in.Rs1 != 2 || in.Imm != -4 {
		t.Errorf("sw = %v", in)
	}
	if in := p.Instrs[2]; in.Imm != 0 {
		t.Errorf("lw no-offset = %v", in)
	}
}

func TestEncodeDecodeAllOpsExamples(t *testing.T) {
	p, err := Assemble(allOpsListing)
	if err != nil {
		t.Fatal(err)
	}
	code, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Instrs) != len(p.Instrs) {
		t.Fatalf("length mismatch %d vs %d", len(q.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		if p.Instrs[i] != q.Instrs[i] {
			t.Errorf("instr %d: %v -> %v", i, p.Instrs[i], q.Instrs[i])
		}
	}
}

// randInstr builds a random but encodable instruction.
func randInstr(r *rand.Rand) Instr {
	ops := []Op{
		OpLUI, OpAUIPC, OpJAL, OpJALR, OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU,
		OpLB, OpLH, OpLW, OpLBU, OpLHU, OpSB, OpSH, OpSW,
		OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI,
		OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
		OpWAITI, OpWAITR, OpSYNC, OpFMR, OpSEND, OpRECV, OpHALT,
		OpCWII, OpCWIR, OpCWRI, OpCWRR,
	}
	in := Instr{Op: ops[r.Intn(len(ops))]}
	reg := func() uint8 { return uint8(r.Intn(32)) }
	switch hisq[in.Op].form {
	case 'R', 'r':
		in.Rd, in.Rs1, in.Rs2 = reg(), reg(), reg()
		if in.Op == OpCWRR {
			in.Rd = 0
		}
	case 'H':
		in.Rd, in.Rs1 = reg(), reg()
		in.Imm = int32(r.Intn(32))
	case 'I':
		in.Rd, in.Rs1 = reg(), reg()
		in.Imm = int32(r.Intn(4096) - 2048)
		switch in.Op {
		case OpWAITI, OpSYNC:
			in.Rd, in.Rs1 = 0, 0
			in.Imm = int32(r.Intn(2048))
		case OpWAITR:
			in.Rd = 0
			in.Imm = 0
		case OpFMR, OpRECV:
			in.Rs1 = 0
			in.Imm = int32(r.Intn(2048))
		case OpSEND:
			in.Rd = 0
			in.Imm = int32(r.Intn(2048))
		case OpHALT:
			in.Rd, in.Rs1, in.Imm = 0, 0, 0
		case OpCWII:
			in.Rs1 = 0
			in.Imm = int32(r.Intn(4096) - 2048)
		case OpCWIR:
			in.Imm = 0
		case OpCWRI:
			in.Rd = 0
			in.Imm = int32(r.Intn(4096) - 2048)
		}
	case 'S':
		in.Rs1, in.Rs2 = reg(), reg()
		in.Imm = int32(r.Intn(4096) - 2048)
	case 'B':
		in.Rs1, in.Rs2 = reg(), reg()
		in.Imm = int32(r.Intn(4096)-2048) &^ 1
	case 'U':
		in.Rd = reg()
		in.Imm = int32(r.Intn(1 << 20))
	case 'J':
		in.Rd = reg()
		in.Imm = int32(r.Intn(1<<20)-(1<<19)) &^ 1
	}
	return in
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		in := randInstr(r)
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %v (%#08x): %v", in, w, err)
		}
		if in != out {
			t.Fatalf("round trip: %v -> %#08x -> %v", in, w, out)
		}
	}
}

func TestDisassembleReassembleFixedPoint(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var prog Program
	for i := 0; i < 500; i++ {
		in := randInstr(r)
		// Branch/jump offsets must stay in-program for Validate; pin them.
		if in.Op.IsBranch() || in.Op == OpJAL {
			in.Imm = 0
		}
		prog.Instrs = append(prog.Instrs, in)
	}
	text := prog.Text()
	p2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, text)
	}
	if len(p2.Instrs) != len(prog.Instrs) {
		t.Fatalf("length changed: %d -> %d", len(prog.Instrs), len(p2.Instrs))
	}
	for i := range prog.Instrs {
		if prog.Instrs[i] != p2.Instrs[i] {
			t.Fatalf("instr %d changed: %v -> %v", i, prog.Instrs[i], p2.Instrs[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			return true // rejected is fine
		}
		// If accepted, re-encoding must reproduce the semantic fields.
		w2, err := Encode(in)
		if err != nil {
			return false
		}
		in2, err := Decode(w2)
		return err == nil && in == in2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesOutOfRangeBranch(t *testing.T) {
	p := &Program{Instrs: []Instr{{Op: OpBEQ, Imm: 400}}}
	if err := p.Validate(); err == nil {
		t.Fatal("expected out-of-range branch error")
	}
	p2 := &Program{Instrs: []Instr{{Op: OpJAL, Imm: -8}}}
	if err := p2.Validate(); err == nil {
		t.Fatal("expected out-of-range jal error")
	}
}

func TestProgramText(t *testing.T) {
	p := MustAssemble("addi $1,$0,5\ncw.i.i 3,7\nhalt")
	txt := p.Text()
	if !strings.Contains(txt, "addi $1,$0,5") || !strings.Contains(txt, "cw.i.i 3,7") {
		t.Fatalf("text = %q", txt)
	}
}

// TestSemantics spells out what each op computes, by hand, on operands
// whose signed and unsigned readings disagree: $1 = -16, $2 = 3, and an
// immediate of 3, for rd = $5 at instruction index 10.
func TestSemantics(t *testing.T) {
	regs := [32]uint32{1: 0xfffffff0, 2: 3}
	alu := map[Op]uint32{
		OpLUI: 0x3000, OpAUIPC: 0x3028,
		OpADDI: 0xfffffff3, OpSLTI: 1, OpSLTIU: 0, OpXORI: 0xfffffff3, OpORI: 0xfffffff3, OpANDI: 0,
		OpSLLI: 0xffffff80, OpSRLI: 0x1ffffffe, OpSRAI: 0xfffffffe,
		OpADD: 0xfffffff3, OpSUB: 0xffffffed, OpSLL: 0xffffff80, OpSLT: 1, OpSLTU: 0,
		OpXOR: 0xfffffff3, OpSRL: 0x1ffffffe, OpSRA: 0xfffffffe, OpOR: 0xfffffff3, OpAND: 0,
	}
	taken := map[Op]bool{OpBEQ: false, OpBNE: true, OpBLT: true, OpBGE: false, OpBLTU: false, OpBGEU: true}
	width := map[Op]int{OpLB: 1, OpLH: 2, OpLW: 4, OpLBU: 1, OpLHU: 2, OpSB: 1, OpSH: 2, OpSW: 4}
	extend := map[Op]uint32{OpLB: 0xffffff80, OpLBU: 0x80, OpLH: 0xffff8080, OpLHU: 0x8080, OpLW: 0x80808080}
	codeword := map[Op][2]uint32{OpCWII: {5, 3}, OpCWIR: {5, 0xfffffff0}, OpCWRI: {0xfffffff0, 3}, OpCWRR: {0xfffffff0, 3}}
	units := map[Unit][]Op{
		UnitNone: {OpInvalid, opCount, OpWAITI, OpWAITR, OpSYNC, OpFMR, OpSEND, OpRECV, OpHALT},
		UnitJump: {OpJAL, OpJALR},
	}
	for op, want := range alu {
		units[UnitALU] = append(units[UnitALU], op)
		if got := (Instr{Op: op, Rd: 5, Rs1: 1, Rs2: 2, Imm: 3}).ALU(&regs, 10); got != want {
			t.Errorf("%s: ALU = %#x, want %#x", op, got, want)
		}
	}
	for op, want := range taken {
		units[UnitBranch] = append(units[UnitBranch], op)
		if got := op.Taken(regs[1], regs[2]); got != want {
			t.Errorf("%s: Taken = %v, want %v", op, got, want)
		}
	}
	for op, want := range width {
		u := UnitLoad
		if hisq[op].form == 'S' {
			u = UnitStore
		}
		units[u] = append(units[u], op)
		if got := op.Width(); got != want {
			t.Errorf("%s: Width = %d, want %d", op, got, want)
		}
		if e, ok := extend[op]; ok {
			if got := op.Extend(0x80808080 >> (32 - 8*want)); got != e {
				t.Errorf("%s: Extend = %#x, want %#x", op, got, e)
			}
		}
	}
	for op, want := range codeword {
		units[UnitNone] = append(units[UnitNone], op)
		port, cw := (Instr{Op: op, Rd: 5, Rs1: 1, Rs2: 2, Imm: 3}).Codeword(&regs)
		if uint32(port) != want[0] || cw != want[1] {
			t.Errorf("%s: Codeword = %#x, %#x, want %#x, %#x", op, port, cw, want[0], want[1])
		}
	}
	n := 0
	for u, ops := range units {
		for _, op := range ops {
			n++
			if got := op.Unit(); got != u {
				t.Errorf("%s: Unit = %d, want %d", op, got, u)
			}
		}
	}
	if n != int(opCount)+1 {
		t.Errorf("%d ops checked for a unit, want every op and one outside the table (%d)", n, opCount+1)
	}
}
