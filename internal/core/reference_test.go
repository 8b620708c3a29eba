package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"dhisq/internal/isa"
	"dhisq/internal/sim"
)

// refCore is the classical subset of the controller as one switch arm per
// op, the way the controller ran it before package isa said what each
// opcode computes. It is the reference FuzzClassicalOps holds the
// controller to: registers, the written prefix of data memory, pc and the
// runtime error of one retired instruction.
type refCore struct {
	regs    [32]uint32
	mem     []byte
	memSize int
	pc      int
	err     error
}

func (c *refCore) fail(format string, args ...any) {
	c.err = fmt.Errorf("core: node 0 pc=%d: %s", c.pc, fmt.Sprintf(format, args...))
}

func (c *refCore) setReg(n uint8, v uint32) {
	if n != 0 {
		c.regs[n] = v
	}
}

func (c *refCore) execClassical(in isa.Instr) bool {
	r := &c.regs
	switch in.Op {
	case isa.OpLUI:
		c.setReg(in.Rd, uint32(in.Imm)<<12)
	case isa.OpAUIPC:
		c.setReg(in.Rd, uint32(c.pc*4)+uint32(in.Imm)<<12)
	case isa.OpJAL:
		c.setReg(in.Rd, uint32((c.pc+1)*4))
		c.pc += int(in.Imm / 4)
		return true
	case isa.OpJALR:
		t := (r[in.Rs1] + uint32(in.Imm)) &^ 1
		if t%4 != 0 {
			c.fail("misaligned jump target %d", t)
			return false
		}
		c.setReg(in.Rd, uint32((c.pc+1)*4))
		c.pc = int(t / 4)
		return true
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		if c.branchTaken(in) {
			c.pc += int(in.Imm / 4)
			return true
		}
	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU:
		v, ok := c.load(in)
		if !ok {
			return false
		}
		c.setReg(in.Rd, v)
	case isa.OpSB, isa.OpSH, isa.OpSW:
		if !c.store(in) {
			return false
		}
	case isa.OpADDI:
		c.setReg(in.Rd, r[in.Rs1]+uint32(in.Imm))
	case isa.OpSLTI:
		c.setReg(in.Rd, refBool(int32(r[in.Rs1]) < in.Imm))
	case isa.OpSLTIU:
		c.setReg(in.Rd, refBool(r[in.Rs1] < uint32(in.Imm)))
	case isa.OpXORI:
		c.setReg(in.Rd, r[in.Rs1]^uint32(in.Imm))
	case isa.OpORI:
		c.setReg(in.Rd, r[in.Rs1]|uint32(in.Imm))
	case isa.OpANDI:
		c.setReg(in.Rd, r[in.Rs1]&uint32(in.Imm))
	case isa.OpSLLI:
		c.setReg(in.Rd, r[in.Rs1]<<uint(in.Imm&31))
	case isa.OpSRLI:
		c.setReg(in.Rd, r[in.Rs1]>>uint(in.Imm&31))
	case isa.OpSRAI:
		c.setReg(in.Rd, uint32(int32(r[in.Rs1])>>uint(in.Imm&31)))
	case isa.OpADD:
		c.setReg(in.Rd, r[in.Rs1]+r[in.Rs2])
	case isa.OpSUB:
		c.setReg(in.Rd, r[in.Rs1]-r[in.Rs2])
	case isa.OpSLL:
		c.setReg(in.Rd, r[in.Rs1]<<(r[in.Rs2]&31))
	case isa.OpSLT:
		c.setReg(in.Rd, refBool(int32(r[in.Rs1]) < int32(r[in.Rs2])))
	case isa.OpSLTU:
		c.setReg(in.Rd, refBool(r[in.Rs1] < r[in.Rs2]))
	case isa.OpXOR:
		c.setReg(in.Rd, r[in.Rs1]^r[in.Rs2])
	case isa.OpSRL:
		c.setReg(in.Rd, r[in.Rs1]>>(r[in.Rs2]&31))
	case isa.OpSRA:
		c.setReg(in.Rd, uint32(int32(r[in.Rs1])>>(r[in.Rs2]&31)))
	case isa.OpOR:
		c.setReg(in.Rd, r[in.Rs1]|r[in.Rs2])
	case isa.OpAND:
		c.setReg(in.Rd, r[in.Rs1]&r[in.Rs2])
	default:
		c.fail("unexecutable op %s", in.Op)
		return false
	}
	c.pc++
	return true
}

func (c *refCore) branchTaken(in isa.Instr) bool {
	a, b := c.regs[in.Rs1], c.regs[in.Rs2]
	switch in.Op {
	case isa.OpBEQ:
		return a == b
	case isa.OpBNE:
		return a != b
	case isa.OpBLT:
		return int32(a) < int32(b)
	case isa.OpBGE:
		return int32(a) >= int32(b)
	case isa.OpBLTU:
		return a < b
	case isa.OpBGEU:
		return a >= b
	}
	return false
}

func (c *refCore) load(in isa.Instr) (uint32, bool) {
	addr := int(int32(c.regs[in.Rs1]) + in.Imm)
	var size int
	switch in.Op {
	case isa.OpLB, isa.OpLBU:
		size = 1
	case isa.OpLH, isa.OpLHU:
		size = 2
	default:
		size = 4
	}
	if addr < 0 || addr+size > c.memSize {
		c.fail("load out of bounds: addr=%d size=%d", addr, size)
		return 0, false
	}
	var v uint32
	for i := min(addr+size, len(c.mem)) - 1; i >= addr; i-- {
		v = v<<8 | uint32(c.mem[i])
	}
	switch in.Op {
	case isa.OpLB:
		v = uint32(int32(v<<24) >> 24)
	case isa.OpLH:
		v = uint32(int32(v<<16) >> 16)
	}
	return v, true
}

func (c *refCore) store(in isa.Instr) bool {
	addr := int(int32(c.regs[in.Rs1]) + in.Imm)
	var size int
	switch in.Op {
	case isa.OpSB:
		size = 1
	case isa.OpSH:
		size = 2
	default:
		size = 4
	}
	if addr < 0 || addr+size > c.memSize {
		c.fail("store out of bounds: addr=%d size=%d", addr, size)
		return false
	}
	if n, end := len(c.mem), addr+size; end > n {
		c.mem = append(c.mem, make([]byte, end-n)...)
	}
	v := c.regs[in.Rs2]
	for i := 0; i < size; i++ {
		c.mem[addr+i] = byte(v)
		v >>= 8
	}
	return true
}

func refBool(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// fuzzMemSize is the data memory of a fuzzed core: small, so that random
// addresses land both inside it and past either end.
const fuzzMemSize = 64

// FuzzClassicalOps retires one RV32I instruction — any op from OpInvalid to
// OpAND, any register indices, any immediate — on a core whose registers
// and written memory prefix the input sets, at any pc, through both the
// controller and refCore, and requires the same registers, memory, pc and
// error.
func FuzzClassicalOps(f *testing.F) {
	regs := make([]byte, 4*32)
	for i := range regs {
		regs[i] = byte(i*37 + 11)
	}
	binary.LittleEndian.PutUint32(regs[4*1:], 8)          // $1: an address inside memory
	binary.LittleEndian.PutUint32(regs[4*2:], 0xfffffffd) // $2 = -3
	binary.LittleEndian.PutUint32(regs[4*3:], 0x80000000) // $3 = MinInt32
	mem := []byte{0x78, 0x56, 0x34, 0x12, 0xfd, 0xff, 0xff, 0xff, 0x80, 0x7f, 0x01}
	for op := isa.OpInvalid; op <= isa.OpAND; op++ {
		f.Add(uint8(op), uint8(20), uint8(1), uint8(2), int32(4), uint8(6), regs, mem)
		f.Add(uint8(op), uint8(21), uint8(2), uint8(3), int32(-8), uint8(9), regs, mem[:5])
		f.Add(uint8(op), uint8(0), uint8(3), uint8(1), int32(31), uint8(0), regs[:12], []byte(nil))
	}
	f.Add(uint8(isa.OpLW), uint8(5), uint8(1), uint8(0), int32(fuzzMemSize-12), uint8(1), regs, mem)
	f.Add(uint8(isa.OpSH), uint8(0), uint8(1), uint8(4), int32(fuzzMemSize-9), uint8(1), regs, mem)
	f.Add(uint8(isa.OpJALR), uint8(1), uint8(1), uint8(0), int32(5), uint8(3), regs, mem)
	f.Fuzz(func(t *testing.T, op, rd, rs1, rs2 uint8, imm int32, pc uint8, regBytes, memBytes []byte) {
		in := isa.Instr{Op: isa.Op(op) % (isa.OpAND + 1), Rd: rd & 31, Rs1: rs1 & 31, Rs2: rs2 & 31, Imm: imm}
		prog := &isa.Program{Instrs: make([]isa.Instr, int(pc)+1)}
		prog.Instrs[pc] = in
		c := NewController(sim.NewEngine(), Config{MemSize: fuzzMemSize}, nil, nil, nil)
		c.Load(prog)
		c.pc = int(pc)
		for r := 1; r < 32 && 4*r+4 <= len(regBytes); r++ {
			c.regs[r] = binary.LittleEndian.Uint32(regBytes[4*r:])
		}
		c.mem = append(c.mem, memBytes[:min(len(memBytes), fuzzMemSize)]...)
		ref := refCore{regs: c.regs, mem: slices.Clone(c.mem), memSize: fuzzMemSize, pc: c.pc}

		ref.execClassical(in)
		c.step()
		if c.regs != ref.regs {
			t.Errorf("%s: registers\n got %x\nwant %x", in, c.regs, ref.regs)
		}
		if got, want := c.ReadMem(0, fuzzMemSize), padded(ref.mem); !bytes.Equal(got, want) {
			t.Errorf("%s: memory\n got % x\nwant % x", in, got, want)
		}
		if c.pc != ref.pc {
			t.Errorf("%s: pc %d, want %d", in, c.pc, ref.pc)
		}
		if fmt.Sprint(c.err) != fmt.Sprint(ref.err) {
			t.Errorf("%s: error %v, want %v", in, c.err, ref.err)
		}
	})
}

// padded is a written memory prefix read back at the full fuzzed size.
func padded(mem []byte) []byte {
	return append(slices.Clone(mem), make([]byte, fuzzMemSize-len(mem))...)
}
