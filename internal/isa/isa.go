// Package isa defines HISQ, the Hardware Instruction Set for Quantum
// computing of the Distributed-HISQ paper (§3.1).
//
// HISQ is an extension of RISC-V RV32I: the classical subset provides
// real-time register computation and program flow (§3.1.1, interrupts and
// fences disabled), and the extension adds the four quantum-control
// capabilities the paper identifies:
//
//   - timing control:      waiti/waitr (queue-based timing, §3.1.2)
//   - triggering:          cw.x.x <port>, <codeword> (§3.1.2)
//   - synchronization:     sync <tgt> (§3.1.3, resolved by the BISP protocol)
//   - classical messaging: send/recv and fmr (§3.1.4)
//
// The paper does not publish binary encodings; we allocate the RISC-V
// custom-0 (0x0B) and custom-1 (0x2B) major opcodes, documented on each Op
// constant. Package isa also provides a two-pass assembler for the textual
// syntax used in the paper's Figure 12 listings ("addi $2,$0,120",
// "cw.i.i 21,2", "waitr $1", ...).
package isa

import "fmt"

// Op identifies an instruction operation.
type Op uint8

// RV32I base integer instructions (standard encodings), followed by the HISQ
// extension. FENCE/ECALL and CSR/interrupt instructions are deliberately
// absent: §3.1.1 disables them to keep timing behaviour deterministic.
const (
	OpInvalid Op = iota

	// U-type
	OpLUI   // lui rd, imm20
	OpAUIPC // auipc rd, imm20

	// Jumps
	OpJAL  // jal rd, offset
	OpJALR // jalr rd, rs1, offset

	// Branches (B-type)
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// Loads (I-type)
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU

	// Stores (S-type)
	OpSB
	OpSH
	OpSW

	// ALU immediate (I-type)
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI

	// ALU register (R-type)
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND

	// HISQ extension, custom-0 major opcode 0x0B.
	OpWAITI // waiti imm          — advance timing point by imm cycles (funct3=000)
	OpWAITR // waitr rs1          — advance timing point by reg cycles (funct3=001)
	OpSYNC  // sync tgt           — BISP synchronization with controller/router tgt (funct3=010)
	OpFMR   // fmr rd, ch         — fetch measurement result from channel ch (funct3=011)
	OpSEND  // send rs1, tgt      — send GPR value to controller tgt (funct3=100)
	OpRECV  // recv rd, src       — blocking receive from controller src (funct3=101)
	OpHALT  // halt               — stop this core (funct3=110)

	// HISQ extension, custom-1 major opcode 0x2B: the codeword-trigger family
	// "cw.x.x <port>, <codeword>" (§3.1.2). x selects immediate or register
	// operands for port and codeword respectively.
	OpCWII // cw.i.i port, cw    (funct3=000; port in rd field, cw in imm12)
	OpCWIR // cw.i.r port, rs1   (funct3=001)
	OpCWRI // cw.r.i rs1, cw     (funct3=010)
	OpCWRR // cw.r.r rs1, rs2    (funct3=011)

	opCount
)

// RISC-V major opcodes used by HISQ. The quantum extension occupies the two
// custom opcode slots reserved by the RISC-V specification for vendor
// extensions, so HISQ binaries remain decodable by an RV32I front-end.
const (
	opcLUI    = 0x37
	opcAUIPC  = 0x17
	opcJAL    = 0x6F
	opcJALR   = 0x67
	opcBranch = 0x63
	opcLoad   = 0x03
	opcStore  = 0x23
	opcOpImm  = 0x13
	opcOp     = 0x33
	opcHISQ   = 0x0B // custom-0: wait/sync/fmr/send/recv/halt
	opcCW     = 0x2B // custom-1: cw.x.x family
)

// opRow declares one instruction. The table below is the instruction set:
// the assembler, the disassembler, Encode and Decode all read it, and none
// of them knows an instruction the table does not list. What an op
// computes is read off the same fields, as RV32I lays them out: the major
// opcode names the unit that retires it (Unit), and funct3, with funct7's
// 0x20 bit, the operation within it (ALU, Taken, Width, Extend, Codeword).
//
// form is the bit layout — RISC-V's R, I, S, B, U and J, plus 'H', the
// I layout with a 5-bit shift amount under funct7, and 'r', the R layout
// whose funct7 Decode does not check (cw.r.r: it is written as 0 and has
// always been read as anything). A word selects a row by opcode; by funct3
// too unless the form is U or J; by funct7 too if the form is R or H.
//
// syntax has one letter per comma-separated assembly operand, and is at
// once what the assembler parses, what Instr.String prints and which Instr
// fields Decode fills (the rest stay zero):
//
//	d  register, in Rd            p  immediate port 0..31, in Rd
//	1  register, in Rs1           i  immediate, in Imm
//	2  register, in Rs2           l  label or byte offset, in Imm
//	m  imm(reg): displacement in Imm, base register in Rs1
type opRow struct {
	mnemonic               string
	opcode, funct3, funct7 uint32
	form                   byte
	syntax                 string
}

var hisq = [opCount]opRow{
	OpInvalid: {mnemonic: "invalid"},

	OpLUI:   {"lui", opcLUI, 0, 0, 'U', "di"},
	OpAUIPC: {"auipc", opcAUIPC, 0, 0, 'U', "di"},
	OpJAL:   {"jal", opcJAL, 0, 0, 'J', "dl"},
	OpJALR:  {"jalr", opcJALR, 0, 0, 'I', "d1i"},

	OpBEQ:  {"beq", opcBranch, 0, 0, 'B', "12l"},
	OpBNE:  {"bne", opcBranch, 1, 0, 'B', "12l"},
	OpBLT:  {"blt", opcBranch, 4, 0, 'B', "12l"},
	OpBGE:  {"bge", opcBranch, 5, 0, 'B', "12l"},
	OpBLTU: {"bltu", opcBranch, 6, 0, 'B', "12l"},
	OpBGEU: {"bgeu", opcBranch, 7, 0, 'B', "12l"},

	OpLB:  {"lb", opcLoad, 0, 0, 'I', "dm"},
	OpLH:  {"lh", opcLoad, 1, 0, 'I', "dm"},
	OpLW:  {"lw", opcLoad, 2, 0, 'I', "dm"},
	OpLBU: {"lbu", opcLoad, 4, 0, 'I', "dm"},
	OpLHU: {"lhu", opcLoad, 5, 0, 'I', "dm"},
	OpSB:  {"sb", opcStore, 0, 0, 'S', "2m"},
	OpSH:  {"sh", opcStore, 1, 0, 'S', "2m"},
	OpSW:  {"sw", opcStore, 2, 0, 'S', "2m"},

	OpADDI:  {"addi", opcOpImm, 0, 0, 'I', "d1i"},
	OpSLTI:  {"slti", opcOpImm, 2, 0, 'I', "d1i"},
	OpSLTIU: {"sltiu", opcOpImm, 3, 0, 'I', "d1i"},
	OpXORI:  {"xori", opcOpImm, 4, 0, 'I', "d1i"},
	OpORI:   {"ori", opcOpImm, 6, 0, 'I', "d1i"},
	OpANDI:  {"andi", opcOpImm, 7, 0, 'I', "d1i"},
	OpSLLI:  {"slli", opcOpImm, 1, 0x00, 'H', "d1i"},
	OpSRLI:  {"srli", opcOpImm, 5, 0x00, 'H', "d1i"},
	OpSRAI:  {"srai", opcOpImm, 5, 0x20, 'H', "d1i"},

	OpADD:  {"add", opcOp, 0, 0x00, 'R', "d12"},
	OpSUB:  {"sub", opcOp, 0, 0x20, 'R', "d12"},
	OpSLL:  {"sll", opcOp, 1, 0x00, 'R', "d12"},
	OpSLT:  {"slt", opcOp, 2, 0x00, 'R', "d12"},
	OpSLTU: {"sltu", opcOp, 3, 0x00, 'R', "d12"},
	OpXOR:  {"xor", opcOp, 4, 0x00, 'R', "d12"},
	OpSRL:  {"srl", opcOp, 5, 0x00, 'R', "d12"},
	OpSRA:  {"sra", opcOp, 5, 0x20, 'R', "d12"},
	OpOR:   {"or", opcOp, 6, 0x00, 'R', "d12"},
	OpAND:  {"and", opcOp, 7, 0x00, 'R', "d12"},

	OpWAITI: {"waiti", opcHISQ, 0, 0, 'I', "i"},
	OpWAITR: {"waitr", opcHISQ, 1, 0, 'I', "1"},
	OpSYNC:  {"sync", opcHISQ, 2, 0, 'I', "i"},
	OpFMR:   {"fmr", opcHISQ, 3, 0, 'I', "di"},
	OpSEND:  {"send", opcHISQ, 4, 0, 'I', "1i"},
	OpRECV:  {"recv", opcHISQ, 5, 0, 'I', "di"},
	OpHALT:  {"halt", opcHISQ, 6, 0, 'I', ""},

	OpCWII: {"cw.i.i", opcCW, 0, 0, 'I', "pi"},
	OpCWIR: {"cw.i.r", opcCW, 1, 0, 'I', "p1"},
	OpCWRI: {"cw.r.i", opcCW, 2, 0, 'I', "1i"},
	OpCWRR: {"cw.r.r", opcCW, 3, 0, 'r', "12"},
}

// spelling is what one mnemonic assembles to: the instruction, and the
// operands it is written with.
type spelling struct {
	op     Op
	syntax string
}

// The table read backwards, built once. spellings is by name, for the
// assembler: every row under its mnemonic, next to the pseudo-instructions,
// each a real instruction written with fewer operands, the unwritten ones
// zero (nop = addi $0,$0,0; mv = addi rd,rs,0; j = jal $0,target; li parses
// as addi rd,$0,v with v of any width, and parseInstr expands it with
// LoadImm). decodeIndex is by opcode | funct3<<7, for Decode: the ops a word
// with those bits can be, which funct7 tells apart (there are at most two).
// unitOf is by Op, so the controller's dispatch is one load: each row's
// Unit, and UnitNone for OpInvalid and every Op outside the table.
var (
	spellings = map[string]spelling{
		"nop": {OpADDI, ""},
		"mv":  {OpADDI, "d1"},
		"j":   {OpJAL, "l"},
		"li":  {OpADDI, "di"},
	}
	decodeIndex [1 << 10][]Op
	unitOf      [256]Unit
)

func init() {
	for op := OpInvalid + 1; op < opCount; op++ {
		r := &hisq[op]
		spellings[r.mnemonic] = spelling{op, r.syntax}
		unitOf[op] = units[r.opcode]
		for f3 := uint32(0); f3 < 8; f3++ {
			if f3 == r.funct3 || r.form == 'U' || r.form == 'J' {
				decodeIndex[r.opcode|f3<<7] = append(decodeIndex[r.opcode|f3<<7], op)
			}
		}
	}
}

// row returns o's table row; an Op outside the table gets OpInvalid's,
// which has no operands, no form and no opcode.
func (o Op) row() *opRow {
	if o >= opCount {
		o = OpInvalid
	}
	return &hisq[o]
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if o < opCount {
		return hisq[o].mnemonic
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the op is a conditional branch.
func (o Op) IsBranch() bool { return o.row().form == 'B' }

// Unit is the RV32I unit that retires an op, read off the row's major
// opcode. Each names what the op computes; what it waits on and when it
// retires is the core's.
type Unit uint8

const (
	UnitNone   Unit = iota // the HISQ extension, OpInvalid, or an Op outside the table
	UnitALU                // OP, OP-IMM, LUI, AUIPC: rd = Instr.ALU
	UnitJump               // jal, jalr: rd = the return address
	UnitBranch             // pc moves by Imm if Op.Taken(rs1, rs2)
	UnitLoad               // rd = Op.Extend of Op.Width bytes at rs1+Imm
	UnitStore              // Op.Width bytes of rs2 to rs1+Imm
)

// units is the unit by major opcode.
var units = [0x80]Unit{
	opcOp: UnitALU, opcOpImm: UnitALU, opcLUI: UnitALU, opcAUIPC: UnitALU,
	opcJAL: UnitJump, opcJALR: UnitJump, opcBranch: UnitBranch, opcLoad: UnitLoad, opcStore: UnitStore,
}

// Unit returns the unit that retires o.
func (o Op) Unit() Unit { return unitOf[o] }

// ALU returns what an ALU-unit instruction at index pc writes to rd. The
// form picks the operands: rs1 and rs2 (R), rs1 and the immediate (I, H),
// or the immediate in the upper 20 bits and 0 (lui) or the instruction's
// byte address (auipc) (U). funct3 picks the operation, the same for every
// form — lui and auipc are funct3 0, add — and funct7's 0x20 bit turns add
// into sub and the logical right shift into the arithmetic one.
func (in Instr) ALU(regs *[32]uint32, pc int) uint32 {
	r := in.Op.row()
	a, b := regs[in.Rs1], uint32(in.Imm)
	switch r.form {
	case 'R':
		b = regs[in.Rs2]
	case 'U':
		a, b = uint32(pc*4), b<<12
		if r.opcode == opcLUI {
			a = 0
		}
	}
	switch r.funct3 {
	case 0:
		if r.funct7 == 0x20 {
			return a - b
		}
		return a + b
	case 1:
		return a << (b & 31)
	case 2, 3:
		if less(a, b, r.funct3 == 2) {
			return 1
		}
		return 0
	case 4:
		return a ^ b
	case 5:
		if r.funct7 == 0x20 {
			return uint32(int32(a) >> (b & 31))
		}
		return a >> (b & 31)
	case 6:
		return a | b
	}
	return a & b
}

// Taken reports whether a branch on rs1 = a and rs2 = b is taken. funct3
// picks the comparison — equal (0, 1), signed less (4, 5), unsigned less
// (6, 7) — and its low bit negates it.
func (o Op) Taken(a, b uint32) bool {
	f := o.row().funct3
	t := a == b
	if f >= 4 {
		t = less(a, b, f < 6)
	}
	return t != (f&1 != 0)
}

func less(a, b uint32, signed bool) bool {
	if signed {
		return int32(a) < int32(b)
	}
	return a < b
}

// Width returns the bytes a load or store moves: 1, 2 or 4 as funct3's low
// two bits are 0, 1 or 2.
func (o Op) Width() int { return 1 << (o.row().funct3 & 3) }

// Extend widens the Width bytes a load read to 32 bits: with zeros if
// funct3's bit 2 is set (lbu, lhu), else with their sign bit.
func (o Op) Extend(v uint32) uint32 {
	if f := o.row().funct3; f&4 == 0 {
		s := 32 - 8<<(f&3)
		v = uint32(int32(v<<s) >> s)
	}
	return v
}

// Codeword returns a cw instruction's port and codeword. funct3's bit 1
// takes the port from register rs1 rather than the immediate in Rd, and
// bit 0 the codeword from a register — rs2 after a register port, else
// rs1 — rather than Imm.
func (in Instr) Codeword(regs *[32]uint32) (port int, cw uint32) {
	f := in.Op.row().funct3
	port, cw, src := int(in.Rd), uint32(in.Imm), in.Rs1
	if f&2 != 0 {
		port, src = int(regs[in.Rs1]), in.Rs2
	}
	if f&1 != 0 {
		cw = regs[src]
	}
	return port, cw
}

// Instr is one decoded HISQ instruction. Field usage mirrors RV32I: Rd is the
// destination, Rs1/Rs2 sources, Imm the sign-extended immediate. The cw
// family reuses Rd as the immediate port number (cw.i.*) and Imm as the
// immediate codeword (cw.*.i); sync/send/recv/fmr carry their controller,
// channel or router address in Imm.
type Instr struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// String renders the instruction in the paper's assembly syntax.
func (in Instr) String() string {
	b := []byte(in.Op.String())
	sep := byte(' ')
	for _, operand := range []byte(in.Op.row().syntax) {
		b = append(b, sep)
		sep = ','
		switch operand {
		case 'd':
			b = fmt.Appendf(b, "$%d", in.Rd)
		case '1':
			b = fmt.Appendf(b, "$%d", in.Rs1)
		case '2':
			b = fmt.Appendf(b, "$%d", in.Rs2)
		case 'p':
			b = fmt.Appendf(b, "%d", in.Rd)
		case 'i', 'l':
			b = fmt.Appendf(b, "%d", in.Imm)
		case 'm':
			b = fmt.Appendf(b, "%d($%d)", in.Imm, in.Rs1)
		}
	}
	return string(b)
}

// Program is an assembled HISQ binary: a sequence of instructions plus the
// symbol table produced by the assembler (label → instruction index).
type Program struct {
	Instrs  []Instr
	Symbols map[string]int
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// Text renders the whole program as assembly, one instruction per line.
func (p *Program) Text() string {
	out := make([]byte, 0, len(p.Instrs)*16)
	for _, in := range p.Instrs {
		out = append(out, in.String()...)
		out = append(out, '\n')
	}
	return string(out)
}

// Validate checks structural well-formedness: register indices < 32, branch
// and jump targets inside the program, and wait immediates non-negative.
func (p *Program) Validate() error {
	n := len(p.Instrs)
	for i, in := range p.Instrs {
		if in.Rd > 31 || in.Rs1 > 31 || in.Rs2 > 31 {
			return fmt.Errorf("isa: instr %d (%s): register index out of range", i, in)
		}
		switch {
		case in.Op.IsBranch() || in.Op == OpJAL:
			if in.Imm%4 != 0 {
				return fmt.Errorf("isa: instr %d (%s): misaligned offset %d", i, in, in.Imm)
			}
			tgt := i + int(in.Imm/4)
			if tgt < 0 || tgt >= n {
				return fmt.Errorf("isa: instr %d (%s): target %d outside program of %d instrs", i, in, tgt, n)
			}
		case in.Op == OpWAITI:
			if in.Imm < 0 {
				return fmt.Errorf("isa: instr %d (%s): negative wait", i, in)
			}
		}
	}
	return nil
}

// Register name tables for the assembler/disassembler.
var abiNames = map[string]uint8{
	"zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
	"t0": 5, "t1": 6, "t2": 7,
	"s0": 8, "fp": 8, "s1": 9,
	"a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17,
	"s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23, "s8": 24, "s9": 25,
	"s10": 26, "s11": 27,
	"t3": 28, "t4": 29, "t5": 30, "t6": 31,
}
