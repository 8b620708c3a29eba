package isa

import (
	"encoding/binary"
	"fmt"
)

// immFields gives, per form that has one, the immediate field's range and
// alignment and how a value outside it is described. Encode refuses such a
// value, and Assemble does first so that what assembles encodes.
var immFields = map[byte]struct {
	lo, hi, align int32
	fault         string
}{
	'I': {-2048, 2047, 1, "I-immediate %d out of range"},
	'H': {0, 31, 1, "shift amount %d out of range"},
	'S': {-2048, 2047, 1, "S-immediate %d out of range"},
	'B': {-4096, 4095, 2, "B-offset %d invalid"},
	'U': {0, 0xFFFFF, 1, "U-immediate %d out of range"},
	'J': {-(1 << 20), 1<<20 - 1, 2, "J-offset %d invalid"},
}

// checkImm reports an in.Imm that does not fit the immediate field of in's
// form; a form without one takes anything.
func checkImm(in Instr) error {
	f, ok := immFields[in.Op.row().form]
	if ok && (in.Imm < f.lo || in.Imm > f.hi || in.Imm%f.align != 0) {
		return fmt.Errorf(f.fault, in.Imm)
	}
	return nil
}

// Encode packs an instruction into its 32-bit machine word. It returns an
// error for immediates that do not fit the encoding's field width.
func Encode(in Instr) (uint32, error) {
	r := in.Op.row()
	if r.form == 0 {
		return 0, fmt.Errorf("isa: cannot encode op %s", in.Op)
	}
	rd, rs1, rs2, u := uint32(in.Rd), uint32(in.Rs1), uint32(in.Rs2), uint32(in.Imm)
	if rd > 31 || rs1 > 31 || rs2 > 31 {
		return 0, fmt.Errorf("isa: register out of range in %s", in)
	}
	if err := checkImm(in); err != nil {
		return 0, fmt.Errorf("isa: %v in %s", err, in)
	}
	switch r.form {
	case 'R', 'r':
		return r.funct7<<25 | rs2<<20 | rs1<<15 | r.funct3<<12 | rd<<7 | r.opcode, nil
	case 'H':
		return r.funct7<<25 | u<<20 | rs1<<15 | r.funct3<<12 | rd<<7 | r.opcode, nil
	case 'I':
		return u&0xFFF<<20 | rs1<<15 | r.funct3<<12 | rd<<7 | r.opcode, nil
	case 'S':
		return (u>>5&0x7F)<<25 | rs2<<20 | rs1<<15 | r.funct3<<12 | (u&0x1F)<<7 | r.opcode, nil
	case 'B':
		return (u>>12&1)<<31 | (u>>5&0x3F)<<25 | rs2<<20 | rs1<<15 | r.funct3<<12 |
			(u>>1&0xF)<<8 | (u>>11&1)<<7 | r.opcode, nil
	case 'U':
		return u<<12 | rd<<7 | r.opcode, nil
	case 'J':
		return (u>>20&1)<<31 | (u>>1&0x3FF)<<21 | (u>>11&1)<<20 | (u>>12&0xFF)<<12 | rd<<7 | r.opcode, nil
	}
	return 0, fmt.Errorf("isa: unknown form %c", r.form)
}

func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// immediate unpacks the immediate field that form lays out in w.
func immediate(form byte, w uint32) int32 {
	switch form {
	case 'I':
		return signExtend(w>>20, 12)
	case 'H':
		return int32(w >> 20 & 0x1F)
	case 'S':
		return signExtend((w>>25)<<5|w>>7&0x1F, 12)
	case 'B':
		return signExtend((w>>31&1)<<12|(w>>7&1)<<11|(w>>25&0x3F)<<5|(w>>8&0xF)<<1, 13)
	case 'U':
		return int32(w >> 12)
	case 'J':
		return signExtend((w>>31&1)<<20|(w>>12&0xFF)<<12|(w>>20&1)<<11|(w>>21&0x3FF)<<1, 21)
	}
	return 0
}

// Decode unpacks a 32-bit machine word. Unknown encodings yield OpInvalid
// with an error rather than a panic, so a corrupted binary is diagnosable.
func Decode(w uint32) (Instr, error) {
	for _, op := range decodeIndex[w&0x7F|(w>>12&7)<<7] {
		r := &hisq[op]
		if (r.form == 'R' || r.form == 'H') && w>>25 != r.funct7 {
			continue
		}
		in := Instr{Op: op}
		for _, operand := range []byte(r.syntax) {
			switch operand {
			case 'd', 'p':
				in.Rd = uint8(w >> 7 & 0x1F)
			case '1':
				in.Rs1 = uint8(w >> 15 & 0x1F)
			case '2':
				in.Rs2 = uint8(w >> 20 & 0x1F)
			case 'i', 'l':
				in.Imm = immediate(r.form, w)
			case 'm':
				in.Rs1, in.Imm = uint8(w>>15&0x1F), immediate(r.form, w)
			}
		}
		return in, nil
	}
	return Instr{}, fmt.Errorf("isa: cannot decode word %#08x", w)
}

// EncodeProgram serializes a program to little-endian machine code.
func EncodeProgram(p *Program) ([]byte, error) {
	buf := make([]byte, 0, 4*len(p.Instrs))
	for i, in := range p.Instrs {
		w, err := Encode(in)
		if err != nil {
			return nil, fmt.Errorf("isa: instr %d: %w", i, err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	return buf, nil
}

// DecodeProgram parses little-endian machine code back into a Program.
func DecodeProgram(code []byte) (*Program, error) {
	if len(code)%4 != 0 {
		return nil, fmt.Errorf("isa: code length %d not a multiple of 4", len(code))
	}
	p := &Program{Instrs: make([]Instr, 0, len(code)/4)}
	for i := 0; i < len(code); i += 4 {
		in, err := Decode(binary.LittleEndian.Uint32(code[i:]))
		if err != nil {
			return nil, fmt.Errorf("isa: word %d: %w", i/4, err)
		}
		p.Instrs = append(p.Instrs, in)
	}
	return p, nil
}
