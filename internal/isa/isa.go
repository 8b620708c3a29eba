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

// Which unit retires an instruction: the classical pipeline, or the timing
// control unit it is dispatched to (§3.1.2).
const (
	cpu = false
	tcu = true
)

// opRow declares one instruction. The table below is the instruction set:
// the assembler, the disassembler, Encode and Decode all read it, and none
// of them knows an instruction the table does not list.
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
	tcu                    bool
}

var hisq = [opCount]opRow{
	OpInvalid: {mnemonic: "invalid"},

	OpLUI:   {"lui", opcLUI, 0, 0, 'U', "di", cpu},
	OpAUIPC: {"auipc", opcAUIPC, 0, 0, 'U', "di", cpu},
	OpJAL:   {"jal", opcJAL, 0, 0, 'J', "dl", cpu},
	OpJALR:  {"jalr", opcJALR, 0, 0, 'I', "d1i", cpu},

	OpBEQ:  {"beq", opcBranch, 0, 0, 'B', "12l", cpu},
	OpBNE:  {"bne", opcBranch, 1, 0, 'B', "12l", cpu},
	OpBLT:  {"blt", opcBranch, 4, 0, 'B', "12l", cpu},
	OpBGE:  {"bge", opcBranch, 5, 0, 'B', "12l", cpu},
	OpBLTU: {"bltu", opcBranch, 6, 0, 'B', "12l", cpu},
	OpBGEU: {"bgeu", opcBranch, 7, 0, 'B', "12l", cpu},

	OpLB:  {"lb", opcLoad, 0, 0, 'I', "dm", cpu},
	OpLH:  {"lh", opcLoad, 1, 0, 'I', "dm", cpu},
	OpLW:  {"lw", opcLoad, 2, 0, 'I', "dm", cpu},
	OpLBU: {"lbu", opcLoad, 4, 0, 'I', "dm", cpu},
	OpLHU: {"lhu", opcLoad, 5, 0, 'I', "dm", cpu},
	OpSB:  {"sb", opcStore, 0, 0, 'S', "2m", cpu},
	OpSH:  {"sh", opcStore, 1, 0, 'S', "2m", cpu},
	OpSW:  {"sw", opcStore, 2, 0, 'S', "2m", cpu},

	OpADDI:  {"addi", opcOpImm, 0, 0, 'I', "d1i", cpu},
	OpSLTI:  {"slti", opcOpImm, 2, 0, 'I', "d1i", cpu},
	OpSLTIU: {"sltiu", opcOpImm, 3, 0, 'I', "d1i", cpu},
	OpXORI:  {"xori", opcOpImm, 4, 0, 'I', "d1i", cpu},
	OpORI:   {"ori", opcOpImm, 6, 0, 'I', "d1i", cpu},
	OpANDI:  {"andi", opcOpImm, 7, 0, 'I', "d1i", cpu},
	OpSLLI:  {"slli", opcOpImm, 1, 0x00, 'H', "d1i", cpu},
	OpSRLI:  {"srli", opcOpImm, 5, 0x00, 'H', "d1i", cpu},
	OpSRAI:  {"srai", opcOpImm, 5, 0x20, 'H', "d1i", cpu},

	OpADD:  {"add", opcOp, 0, 0x00, 'R', "d12", cpu},
	OpSUB:  {"sub", opcOp, 0, 0x20, 'R', "d12", cpu},
	OpSLL:  {"sll", opcOp, 1, 0x00, 'R', "d12", cpu},
	OpSLT:  {"slt", opcOp, 2, 0x00, 'R', "d12", cpu},
	OpSLTU: {"sltu", opcOp, 3, 0x00, 'R', "d12", cpu},
	OpXOR:  {"xor", opcOp, 4, 0x00, 'R', "d12", cpu},
	OpSRL:  {"srl", opcOp, 5, 0x00, 'R', "d12", cpu},
	OpSRA:  {"sra", opcOp, 5, 0x20, 'R', "d12", cpu},
	OpOR:   {"or", opcOp, 6, 0x00, 'R', "d12", cpu},
	OpAND:  {"and", opcOp, 7, 0x00, 'R', "d12", cpu},

	OpWAITI: {"waiti", opcHISQ, 0, 0, 'I', "i", tcu},
	OpWAITR: {"waitr", opcHISQ, 1, 0, 'I', "1", tcu},
	OpSYNC:  {"sync", opcHISQ, 2, 0, 'I', "i", tcu},
	OpFMR:   {"fmr", opcHISQ, 3, 0, 'I', "di", cpu},
	OpSEND:  {"send", opcHISQ, 4, 0, 'I', "1i", cpu},
	OpRECV:  {"recv", opcHISQ, 5, 0, 'I', "di", cpu},
	OpHALT:  {"halt", opcHISQ, 6, 0, 'I', "", cpu},

	OpCWII: {"cw.i.i", opcCW, 0, 0, 'I', "pi", tcu},
	OpCWIR: {"cw.i.r", opcCW, 1, 0, 'I', "p1", tcu},
	OpCWRI: {"cw.r.i", opcCW, 2, 0, 'I', "1i", tcu},
	OpCWRR: {"cw.r.r", opcCW, 3, 0, 'r', "12", tcu},
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
var (
	spellings = map[string]spelling{
		"nop": {OpADDI, ""},
		"mv":  {OpADDI, "d1"},
		"j":   {OpJAL, "l"},
		"li":  {OpADDI, "di"},
	}
	decodeIndex [1 << 10][]Op
)

func init() {
	for op := OpInvalid + 1; op < opCount; op++ {
		r := &hisq[op]
		spellings[r.mnemonic] = spelling{op, r.syntax}
		for f3 := uint32(0); f3 < 8; f3++ {
			if f3 == r.funct3 || r.form == 'U' || r.form == 'J' {
				decodeIndex[r.opcode|f3<<7] = append(decodeIndex[r.opcode|f3<<7], op)
			}
		}
	}
}

// row returns o's table row; an Op outside the table gets OpInvalid's,
// which has no operands, no form and no unit.
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

// IsQuantum reports whether the instruction is dispatched to the timing
// control unit rather than retired purely in the classical pipeline.
func (o Op) IsQuantum() bool { return o.row().tcu }

// IsBranch reports whether the op is a conditional branch.
func (o Op) IsBranch() bool { return o.row().form == 'B' }

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
