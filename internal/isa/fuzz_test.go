package isa

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"
)

// FuzzAssemble drives the hisq-asm text parser with arbitrary input. The
// assembler must reject garbage with an error, never a panic; accepted
// programs must survive the encode/decode round trip.
func FuzzAssemble(f *testing.F) {
	// Seed corpus: the Figure 12-style constructs the assembler documents,
	// drawn from the examples and the paper listings.
	seeds := []string{
		"addi $1,$0,40\nhalt\n",
		"# comment\nloop:\naddi $1,$1,-1\nbne $1,$0,loop\nhalt\n",
		"li $2,120\ncw.i.i 21,2\nwaiti 100\nhalt\n",
		"sync 5\nfmr $3,0\nsend $3,1\nrecv $4,0\nhalt\n",
		"lw $3,8($2)\nsw $3,12($2)\nnop\nmv $5,$3\n",
		"a: b: jal $0,a\n",
		"lui $1,0xFFFFF\nauipc $2,1\njalr $0,$1,0\n",
		"li $7,1000000\nwaitr $7\ncw.r.r $1,$2\ncw.i.r 3,$4\ncw.r.i $5,9\n",
		"beq x1,x2,8\nblt ra,sp,-4\nsltiu $3,$4,2047\n",
		"halt ; trailing comment\n// another\n",
		"j loop\nloop: halt",
		"",
		":\n::\nx:",
		"addi $1",
		"lw $3,(((($2)",
		"li $2,99999999999999999999",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		if p == nil {
			t.Fatal("Assemble returned nil program with nil error")
		}
		// Whatever assembles must encode, and the binary must decode back
		// to the same instruction stream.
		code, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("assembled program does not encode: %v", err)
		}
		p2, err := DecodeProgram(code)
		if err != nil {
			t.Fatalf("assembled program failed to decode: %v", err)
		}
		if len(p2.Instrs) != len(p.Instrs) {
			t.Fatalf("round trip changed length: %d -> %d", len(p.Instrs), len(p2.Instrs))
		}
		for i := range p.Instrs {
			if p.Instrs[i] != p2.Instrs[i] {
				t.Fatalf("instr %d changed in round trip: %v -> %v", i, p.Instrs[i], p2.Instrs[i])
			}
		}
	})
}

// FuzzDecode drives the 32-bit instruction decoder with arbitrary words.
// Unknown encodings must yield an error, never a panic, and any word that
// decodes must re-encode to a word that decodes identically (decode is a
// canonicalizing left inverse of encode).
func FuzzDecode(f *testing.F) {
	// Seed corpus: one canonical word per opcode family.
	seedInstrs := []Instr{
		{Op: OpADDI, Rd: 1, Rs1: 0, Imm: 40},
		{Op: OpLUI, Rd: 2, Imm: 0xFFFFF},
		{Op: OpJAL, Rd: 0, Imm: -44},
		{Op: OpJALR, Rd: 1, Rs1: 2, Imm: 8},
		{Op: OpBNE, Rs1: 1, Rs2: 2, Imm: -28},
		{Op: OpLW, Rd: 3, Rs1: 2, Imm: 8},
		{Op: OpSW, Rs1: 2, Rs2: 3, Imm: 12},
		{Op: OpSRAI, Rd: 4, Rs1: 5, Imm: 31},
		{Op: OpSUB, Rd: 6, Rs1: 7, Rs2: 8},
		{Op: OpWAITI, Imm: 100},
		{Op: OpSYNC, Imm: 5},
		{Op: OpFMR, Rd: 3},
		{Op: OpSEND, Rs1: 3, Imm: 1},
		{Op: OpRECV, Rd: 4},
		{Op: OpHALT},
		{Op: OpCWII, Rd: 21, Imm: 2},
		{Op: OpCWRR, Rs1: 1, Rs2: 2},
	}
	for _, in := range seedInstrs {
		w, err := Encode(in)
		if err != nil {
			f.Fatalf("seed %v does not encode: %v", in, err)
		}
		f.Add(w)
	}
	f.Add(uint32(0))
	f.Add(^uint32(0))
	f.Fuzz(func(t *testing.T, w uint32) {
		in, err := Decode(w)
		if err != nil {
			return
		}
		w2, err := Encode(in)
		if err != nil {
			t.Fatalf("decoded %#08x to %v, which does not re-encode: %v", w, in, err)
		}
		in2, err := Decode(w2)
		if err != nil {
			t.Fatalf("re-encoded %v to %#08x, which does not decode: %v", in, w2, err)
		}
		if in != in2 {
			t.Fatalf("decode not stable: %#08x -> %v -> %#08x -> %v", w, in, w2, in2)
		}
	})
}

// TestRemoteFeedForwardCorpusSeed pins the committed fuzz corpus entry
// testdata/fuzz/FuzzDecodeProgram/remote-feedforward-2chip: the encoded
// program of the communication-qubit controller from a compiled two-chip
// teleported CNOT (regenerate by compiling that circuit with Chips=2 and
// encoding the controller with the most recv instructions). The seed keeps
// the fuzzer exercising the cross-chip feed-forward decode path — herald
// recv, conditional branch on the measured bit, correction codeword — and
// this test fails loudly if the entry ever stops decoding to that shape.
func TestRemoteFeedForwardCorpusSeed(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeProgram/remote-feedforward-2chip")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 3)
	if len(lines) < 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("corpus entry not in go fuzz v1 format: %q", lines[0])
	}
	var code string
	if _, err := fmt.Sscanf(lines[1], "[]byte(%q)", &code); err != nil {
		t.Fatalf("corpus entry body: %v", err)
	}
	p, err := DecodeProgram([]byte(code))
	if err != nil {
		t.Fatalf("corpus seed no longer decodes: %v", err)
	}
	recv, branch := 0, 0
	for _, in := range p.Instrs {
		switch in.Op {
		case OpRECV:
			recv++
		case OpBEQ, OpBNE:
			branch++
		}
	}
	if recv < 2 || branch == 0 {
		t.Fatalf("corpus seed decoded to %d recv, %d branches — lost the feed-forward shape", recv, branch)
	}
}

// FuzzDecodeProgram covers the multi-word path (length handling, error
// position reporting) with arbitrary byte strings.
func FuzzDecodeProgram(f *testing.F) {
	p := MustAssemble("addi $1,$0,40\ncw.i.i 2,7\nhalt\n")
	code, err := EncodeProgram(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(code)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, code []byte) {
		p, err := DecodeProgram(code)
		if err != nil {
			return
		}
		if len(p.Instrs) != len(code)/4 {
			t.Fatalf("decoded %d instrs from %d bytes", len(p.Instrs), len(code))
		}
	})
}
