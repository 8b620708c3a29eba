package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// This file freezes HISQ's binary format. It uses nothing but names the
// package had before the instruction table existed (Assemble, Encode,
// Decode, Instr, opCount), so it compiles unchanged at an older commit:
// copy it there and run `go test ./internal/isa -run TestEncodingGolden
// -update` to regenerate testdata/encoding.golden from that commit's
// encoder, or `-run TestDecodeSelectorSpace` to read its decoder's digest
// off the failure message. Both artefacts in the tree came from commit
// 434c8c6, the last one with the hand-written switches.

var update = flag.Bool("update", false, "rewrite testdata/encoding.golden from this tree's Encode; run it at the commit whose format is to be frozen")

const goldenPath = "testdata/encoding.golden"

// allOpsListing spells every Op once, in Op order.
const allOpsListing = `
lui $1, 1000
auipc $2, 4
jal $1, 8
jalr $1, $2, 4
beq $1,$2,8
bne $1,$2,8
blt $1,$2,-4
bge $1,$2,-4
bltu $1,$2,8
bgeu $1,$2,8
lb $1, 1($2)
lh $1, 2($2)
lw $1, 4($2)
lbu $1, 1($2)
lhu $1, 2($2)
sb $1, 1($2)
sh $1, 2($2)
sw $1, 4($2)
addi $1,$2,-5
slti $1,$2,5
sltiu $1,$2,5
xori $1,$2,5
ori $1,$2,5
andi $1,$2,5
slli $1,$2,5
srli $1,$2,5
srai $1,$2,5
add $1,$2,$3
sub $1,$2,$3
sll $1,$2,$3
slt $1,$2,$3
sltu $1,$2,$3
xor $1,$2,$3
srl $1,$2,$3
sra $1,$2,$3
or $1,$2,$3
and $1,$2,$3
waiti 100
waitr $4
sync 2
fmr $5, 3
send $5, 7
recv $6, 7
halt
cw.i.i 21,2
cw.i.r 21,$3
cw.r.i $4,2
cw.r.r $4,$5
`

// assembleOne assembles one line and returns its instruction. Assemble
// wants every branch and jump to land inside the program, so the line is
// padded with nops on the side its offset (target's, the instruction the
// text is known to mean) points to.
func assembleOne(text string, target Instr) (Instr, error) {
	before, after := 0, 0
	if target.Op.IsBranch() || target.Op == OpJAL {
		before, after = max(0, int(-target.Imm/4)), max(0, int(target.Imm/4))
	}
	p, err := Assemble(strings.Repeat("nop\n", before) + text + "\n" + strings.Repeat("nop\n", after))
	if err != nil {
		return Instr{}, err
	}
	return p.Instrs[before], nil
}

// goldenLines renders "text<TAB>word" for every Op at the smallest and the
// largest immediate its form encodes (with all-zero and all-31 registers)
// and at a typical one, then for allOpsListing. The boundaries are found by
// asking Encode, so the generator knows no form. Only canonical lines are
// kept — the text is what the word disassembles to and assembles back to
// it — which drops what encodes but does not assemble: a negative wait
// (waiti's lower boundary is 0) and a branch or jump offset that is not a
// multiple of 4 (their upper boundaries are 4092 and 1<<20 - 4).
func goldenLines(t *testing.T) []string {
	var lines []string
	seen := map[string]bool{}
	add := func(in Instr) bool {
		w, err := Encode(in)
		if err != nil {
			return false
		}
		canon, err := Decode(w)
		if err != nil {
			t.Fatalf("%v encodes to %#08x, which does not decode: %v", in, w, err)
		}
		text := canon.String()
		if got, err := assembleOne(text, canon); err != nil || got != canon {
			return false
		}
		if w, err = Encode(canon); err != nil {
			t.Fatalf("canonical %v does not encode: %v", canon, err)
		}
		if !seen[text] {
			seen[text] = true
			lines = append(lines, fmt.Sprintf("%s\t0x%08x", text, w))
		}
		return true
	}
	bounds := []int32{-(1 << 20), -4096, -2048, 0, 31, 2047, 4092, 4094, 1<<20 - 4, 1<<20 - 2, 0xFFFFF}
	for op := OpInvalid + 1; op < opCount; op++ {
		for _, imm := range bounds {
			if add(Instr{Op: op, Imm: imm}) {
				break
			}
		}
		if !add(Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 8}) {
			t.Fatalf("%s: no typical line", op)
		}
		for i := len(bounds) - 1; i >= 0; i-- {
			if add(Instr{Op: op, Rd: 31, Rs1: 31, Rs2: 31, Imm: bounds[i]}) {
				break
			}
		}
	}
	lines = append(lines, "# one instruction per Op (TestEncodeDecodeAllOpsExamples)")
	seen = map[string]bool{}
	for i, in := range MustAssemble(allOpsListing).Instrs {
		if !add(in) {
			t.Fatalf("listing instr %d (%v) is not canonical", i, in)
		}
	}
	return lines
}

// TestEncodingGolden holds the assembler, encoder, decoder and disassembler
// to the committed machine words, so that a change made symmetrically to
// Encode and Decode — which every round-trip test passes — fails here.
func TestEncodingGolden(t *testing.T) {
	if *update {
		head := "# HISQ binary format: assembly text<TAB>32-bit machine word. Regenerate: go test ./internal/isa -run TestEncodingGolden -update\n"
		if err := os.WriteFile(goldenPath, []byte(head+strings.Join(goldenLines(t), "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var covered [opCount]bool
	for n, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		text, hexWord, _ := strings.Cut(line, "\t")
		word, err := strconv.ParseUint(hexWord, 0, 32)
		if err != nil {
			t.Fatalf("%s:%d: %v", goldenPath, n+1, err)
		}
		in, err := Decode(uint32(word))
		if err != nil || in.String() != text {
			t.Errorf("Decode(%s) = %q, %v; want %q", hexWord, in, err, text)
			continue
		}
		covered[in.Op] = true
		got, err := assembleOne(text, in)
		if err != nil {
			t.Errorf("Assemble(%q): %v", text, err)
			continue
		}
		if w, err := Encode(got); err != nil || w != uint32(word) {
			t.Errorf("Encode(Assemble(%q)) = %#08x, %v; want %s", text, w, err, hexWord)
		}
	}
	for op := OpInvalid + 1; op < opCount; op++ {
		if !covered[op] {
			t.Errorf("%s has no line in %s", op, goldenPath)
		}
	}

	// Three RV32I words worked out by hand from the RISC-V unprivileged
	// spec (chapter 2 layouts, chapter 24 opcode listing), so the golden
	// file is anchored to the standard rather than only to our own past.
	for text, want := range map[string]uint32{
		"addi x1,x0,40": 0x02800093, // imm 0x028 | rs1 0 | 000 | rd 1 | 0010011
		"lui x1,1":      0x000010b7, // imm20 1 | rd 1 | 0110111
		"sub x6,x7,x8":  0x40838333, // 0100000 | rs2 8 | rs1 7 | 000 | rd 6 | 0110011
	} {
		if w, err := Encode(MustAssemble(text).Instrs[0]); err != nil || w != want {
			t.Errorf("%s encodes to %#08x, %v; the RISC-V spec says %#08x", text, w, err, want)
		}
	}
}

// selectorSpaceDigest is the SHA-256 TestDecodeSelectorSpace computed with
// commit 434c8c6's Decode.
const selectorSpaceDigest = "b72b347c62183d56ad9a11f3cec7c16f957ff2c7fcacf4989539e01b49e04f35"

// TestDecodeSelectorSpace pins Decode as a function: every value of the
// bits that select an instruction (opcode, funct3, funct7) over five fills
// of the operand bits, hashed with everything Decode returns. One corner is
// pinned as found rather than as designed: cw.r.r decodes under any funct7
// although Encode only ever writes funct7 0.
func TestDecodeSelectorSpace(t *testing.T) {
	const selectorBits = 0x7F | 7<<12 | 0x7F<<25
	h := sha256.New()
	var rec [13]byte
	for _, fill := range []uint32{0, 0xFFFFFFFF, 0xA5A5A5A5, 0x5A5A5A5A, 0x12345678} {
		for sel := uint32(0); sel < 1<<17; sel++ {
			w := fill&^selectorBits | sel&0x7F | (sel>>7&7)<<12 | (sel>>10)<<25
			in, err := Decode(w)
			binary.LittleEndian.PutUint32(rec[0:], w)
			rec[4] = 0
			if err == nil {
				rec[4] = 1
			}
			rec[5], rec[6], rec[7], rec[8] = byte(in.Op), in.Rd, in.Rs1, in.Rs2
			binary.LittleEndian.PutUint32(rec[9:], uint32(in.Imm))
			h.Write(rec[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != selectorSpaceDigest {
		t.Fatalf("Decode changed somewhere in the selector space: digest %s, want %s", got, selectorSpaceDigest)
	}
}

var decodeSink Instr

// TestDecodeDoesNotAllocate decodes one word per Op.
func TestDecodeDoesNotAllocate(t *testing.T) {
	var words []uint32
	for op := OpInvalid + 1; op < opCount; op++ {
		w, err := Encode(Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 8})
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, w)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, w := range words {
			decodeSink, _ = Decode(w)
		}
	}); n != 0 {
		t.Fatalf("Decode allocates: %v allocations over %d words", n, len(words))
	}
}
