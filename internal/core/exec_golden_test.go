package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dhisq/internal/core"
	"dhisq/internal/isa"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// This file freezes what the controller does with every HISQ op. Each case
// runs a fixed register and memory prelude, then its own instructions, then
// halt, on node 0 of the stub two-controller fabric. Node 1 sends node 0 one
// message and answers one nearby sync, and measurement results wait on two
// channels. The rendering is node 0's registers, the data memory the
// prelude and the case touch, PC, EndTime, Stats and commits, node 1's
// summary, and the TELF text of both. It uses only the controller's
// exported surface and the stub fabric, so it compiles unchanged at an
// older commit: copy it there and run `go test ./internal/core -run
// TestExecGolden -update-exec` to regenerate testdata/exec.golden. The file
// in the tree came from commit 2f965f6, the last one before the controller
// changed how it fails on bad addresses; it is not edited to make a change
// pass. It was re-recorded twice, each time for a TELF schema change: when
// stalls became TELF stall events, and when every event gained its cause
// (the second re-record added " c=..." to the telf lines and nothing else).
// A third re-record dropped " Syncs:N" from the stats lines and nothing
// else, when Stats lost that counter: every recorded N equalled the node's
// count of sync_done events on the case's telf line, which still pins it.

var updateExec = flag.Bool("update-exec", false, "rewrite testdata/exec.golden from this tree; run it at the commit whose behaviour is to be frozen")

const execGolden = "testdata/exec.golden"

// execPrelude sets $1..$11 to values with no symmetry an op could hide
// behind and writes 12 bytes at 100: 0x12345678, -3, and a halfword
// 0x7f80 (its low byte negative as a signed byte). Results land in $20+.
const execPrelude = `
	li $1, 5
	li $2, -3
	li $3, -2147483648
	li $4, 40
	li $5, 0x12345678
	li $6, 100
	li $7, 3
	li $8, 9
	li $9, -1
	li $10, 33
	li $11, 0x7f80
	sw $5, 0($6)
	sw $2, 4($6)
	sh $11, 8($6)
`

// execPartner is node 1's program: one message to node 0, one sync with it.
const execPartner = `
	li $1, 77
	send $1, 0
	waiti 20
	sync 0
	halt
`

// execCase is one golden case: src runs after the prelude; raw instructions,
// which the assembler cannot spell, follow it; halt ends the program.
type execCase struct {
	name string
	src  string
	raw  []isa.Instr
}

var execCases = []execCase{
	{"prelude_only", "", nil},

	{"lui", "lui $20, 0x12345", nil},
	{"lui_max", "lui $20, 0xFFFFF", nil},
	{"auipc", "auipc $20, 1", nil},
	{"auipc_zero", "auipc $20, 0", nil},

	{"jal_forward", "jal $20, 8\naddi $21, $0, 1\naddi $22, $0, 2", nil},
	{"jal_next", "jal $0, 4\naddi $21, $0, 1", nil},
	{"jalr_forward", "auipc $21, 0\njalr $20, $21, 12\naddi $22, $0, 1\naddi $23, $0, 2", nil},
	{"jalr_clears_bit0", "auipc $21, 0\njalr $20, $21, 13\naddi $22, $0, 1\naddi $23, $0, 2", nil},
	{"jalr_past_end", "jalr $20, $0, 2000", nil},

	{"beq_taken", "beq $1, $1, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"beq_not_taken", "beq $1, $2, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"bne_taken", "bne $1, $2, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"bne_not_taken", "bne $1, $1, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"blt_taken", "blt $2, $1, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"blt_not_taken", "blt $1, $2, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"blt_backward_loop", "addi $20, $20, 1\nblt $20, $1, -4", nil},
	{"bge_taken", "bge $1, $2, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"bge_equal_taken", "bge $1, $1, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"bge_not_taken", "bge $2, $1, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"bltu_taken", "bltu $1, $2, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"bltu_not_taken", "bltu $2, $1, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"bgeu_taken", "bgeu $2, $1, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},
	{"bgeu_not_taken", "bgeu $1, $2, 8\naddi $20, $0, 1\naddi $21, $0, 2", nil},

	{"lw", "lw $20, 0($6)", nil},
	{"lw_negative", "lw $20, 4($6)", nil},
	{"lw_unaligned", "lw $20, 2($6)", nil},
	{"lw_unwritten", "lw $20, 1000($0)", nil},
	{"lh_signed_negative", "lh $20, 4($6)", nil},
	{"lh_signed_positive", "lh $20, 8($6)", nil},
	{"lhu", "lhu $20, 4($6)", nil},
	{"lb_signed_negative", "lb $20, 8($6)", nil},
	{"lb_signed_positive", "lb $20, 9($6)", nil},
	{"lbu", "lbu $20, 8($6)", nil},
	{"lh_top_of_memory", "li $21, 65534\nlh $20, 0($21)", nil},
	{"lw_past_top_out_of_bounds", "li $21, 65534\nlw $20, 0($21)", nil},
	{"lb_negative_out_of_bounds", "lb $20, -1($0)", nil},

	{"sw", "sw $9, 12($6)", nil},
	{"sh", "sh $5, 16($6)", nil},
	{"sb", "sb $5, 20($6)", nil},
	{"sh_unaligned", "sh $5, 13($6)", nil},
	{"sb_top_of_memory", "li $21, 65535\nsb $9, 0($21)\nlbu $20, 0($21)", nil},
	{"sh_past_top_out_of_bounds", "li $21, 65535\nsh $9, 0($21)", nil},
	{"sw_negative_out_of_bounds", "sw $9, -4($0)", nil},

	{"addi", "addi $20, $1, -2048", nil},
	{"addi_wraps", "addi $20, $3, -1", nil},
	{"addi_to_x0", "addi $0, $1, 7", nil},
	{"slti_true", "slti $20, $2, 0", nil},
	{"slti_false", "slti $20, $1, 0", nil},
	{"sltiu_true", "sltiu $20, $1, -1", nil},
	{"sltiu_false", "sltiu $20, $2, 5", nil},
	{"xori", "xori $20, $5, -1", nil},
	{"ori", "ori $20, $1, 0x700", nil},
	{"andi", "andi $20, $5, 0xff", nil},
	{"andi_negative", "andi $20, $5, -16", nil},
	{"slli", "slli $20, $1, 31", nil},
	{"srli", "srli $20, $2, 1", nil},
	{"srli_31", "srli $20, $3, 31", nil},
	{"srai", "srai $20, $2, 1", nil},
	{"srai_31", "srai $20, $3, 31", nil},

	{"add_wraps", "add $20, $3, $3", nil},
	{"sub", "sub $20, $1, $2", nil},
	{"sub_from_x0", "sub $20, $0, $1", nil},
	{"sll_amount_40", "sll $20, $5, $4", nil},
	{"sll_amount_33", "sll $20, $1, $10", nil},
	{"srl_amount_40", "srl $20, $2, $4", nil},
	{"srl_amount_33", "srl $20, $2, $10", nil},
	{"sra_amount_40", "sra $20, $2, $4", nil},
	{"sra_amount_33", "sra $20, $3, $10", nil},
	{"slt_true", "slt $20, $2, $1", nil},
	{"slt_false", "slt $20, $1, $2", nil},
	{"sltu_true", "sltu $20, $1, $2", nil},
	{"sltu_false", "sltu $20, $2, $1", nil},
	{"xor", "xor $20, $5, $9", nil},
	{"or", "or $20, $1, $2", nil},
	{"and", "and $20, $5, $2", nil},

	{"waiti_then_cw", "waiti 100\ncw.i.i 1, 2", nil},
	{"waiti_zero_late_cw", "waiti 0\ncw.i.i 1, 2", nil},
	{"waitr_then_cw", "waitr $4\nwaiti 60\ncw.i.i 1, 2", nil},
	{"waitr_unsigned_huge", "waitr $9\ncw.i.i 1, 2", nil},
	{"cw_ii_two_at_one_point", "waiti 100\ncw.i.i 1, 2\ncw.i.i 27, -2048", nil},
	{"cw_ir", "waiti 100\ncw.i.r 2, $5", nil},
	{"cw_ri", "waiti 100\ncw.r.i $7, 9", nil},
	{"cw_rr", "waiti 100\ncw.r.r $7, $8", nil},
	{"cw_ii_bad_port", "waiti 100\ncw.i.i 28, 1", nil},
	{"cw_ri_bad_port", "waiti 100\ncw.r.i $9, 1", nil},
	{"cw_rr_bad_port", "waiti 100\ncw.r.r $4, $8", nil},

	{"sync_partner", "waiti 10\nsync 1\nwaiti 8\ncw.i.i 1, 1", nil},
	{"sync_partner_twice", "sync 1\nsync 1", nil},
	{"sync_self", "sync 0", nil},
	{"send", "send $5, 1", nil},
	{"recv", "recv $20, 1", nil},
	{"recv_twice", "recv $20, 1\nrecv $21, 1", nil},
	{"recv_silent_source", "recv $20, 2047", nil},
	{"fmr", "fmr $20, 3", nil},
	{"fmr_two_channels", "fmr $20, 3\nfmr $21, 0", nil},
	{"fmr_empty_channel", "fmr $20, 2047", nil},
	{"halt_stops", "halt\naddi $20, $0, 1", nil},
	{"invalid_op", "", []isa.Instr{{Op: isa.OpInvalid}}},
}

// execProgram assembles one case: prelude, case, raw instructions, halt.
func execProgram(tc execCase) (*isa.Program, error) {
	p, err := isa.Assemble(execPrelude + tc.src + "\n")
	if err != nil {
		return nil, err
	}
	p.Instrs = append(append(p.Instrs, tc.raw...), isa.Instr{Op: isa.OpHALT})
	return p, nil
}

func renderNode(b *strings.Builder, c *core.Controller) {
	status := "halted"
	if !c.Halted() {
		status = "blocked " + c.Blocked().String()
	}
	fmt.Fprintf(b, "  node %d %s pc=%d end=%d err=%v stats %+v\n", c.Cfg.ID, status, c.PC(), c.EndTime(), c.Err(), c.Stats)
}

func renderExecCase(tc execCase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %q\n", tc.name, strings.ReplaceAll(tc.src, "\n", "; "))
	p, err := execProgram(tc)
	if err != nil {
		fmt.Fprintf(&b, "  refused: %v\n", err)
		return b.String()
	}
	eng := sim.NewEngine()
	fab := newStubFabric(eng, 2)
	sink := &collectSink{}
	log := telf.NewLog()
	c0 := core.NewController(eng, core.DefaultConfig(0), fab, sink, log)
	c1 := core.NewController(eng, core.DefaultConfig(1), fab, sink, log)
	fab.ctrl[0], fab.ctrl[1] = c0, c1
	c0.Load(p)
	c1.Load(isa.MustAssemble(execPartner))
	c0.PostResult(3, 1, 40)
	c0.PostResult(0, 0, 55)
	c0.Start()
	c1.Start()
	eng.Run(0)

	renderNode(&b, c0)
	var regs []string
	for r := 1; r < 32; r++ {
		if v := c0.Reg(r); v != 0 {
			regs = append(regs, fmt.Sprintf("$%d=%08x", r, v))
		}
	}
	fmt.Fprintf(&b, "  regs %s\n", strings.Join(regs, " "))
	fmt.Fprintf(&b, "  mem[96:128] % x top %x\n", c0.ReadMem(96, 32), c0.ReadMem(65532, 4))
	var commits []string
	for _, cm := range sink.commits {
		commits = append(commits, fmt.Sprintf("%d:%d:%d@%d", cm.node, cm.port, cm.cw, cm.at))
	}
	fmt.Fprintf(&b, "  commits %s\n", strings.Join(commits, " "))
	renderNode(&b, c1)
	fmt.Fprintf(&b, "  telf %s\n", strings.ReplaceAll(strings.TrimSpace(log.Text()), "\n", " | "))
	return b.String()
}

// TestExecGolden holds the controller's execution of every case to the
// rendering taken from the per-op switches.
func TestExecGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range execCases {
		got.WriteString(renderExecCase(tc))
	}
	if *updateExec {
		if err := os.WriteFile(execGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(execGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", execGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", execGolden, len(gl), len(wl))
}

// TestExecGoldenCoversEveryOp: every op the instruction set names runs in
// some case after the prelude.
func TestExecGoldenCoversEveryOp(t *testing.T) {
	prelude := len(isa.MustAssemble(execPrelude).Instrs)
	ran := map[isa.Op]bool{}
	for _, tc := range execCases {
		p, err := execProgram(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, in := range p.Instrs[prelude:] {
			ran[in.Op] = true
		}
	}
	for op := isa.OpInvalid; !strings.HasPrefix(op.String(), "op("); op++ {
		if !ran[op] {
			t.Errorf("no case runs %s", op)
		}
	}
}
