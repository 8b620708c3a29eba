package core_test

import (
	"bytes"
	"strings"
	"testing"

	"dhisq/internal/core"
	"dhisq/internal/isa"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// stubFabric wires two controllers back-to-back with a fixed-latency link —
// the minimal fabric for exercising nearby BISP sync and messaging. Its
// deliveries are typed engine events on its own handler: Op stubSync or
// stubMessage, Node the destination, A the source, B the value and C the
// logical arrival time.
type stubFabric struct {
	eng     *sim.Engine
	hid     sim.HandlerID
	ctrl    map[int]*core.Controller
	latency sim.Time
}

const (
	stubSync uint8 = iota
	stubMessage
)

func newStubFabric(eng *sim.Engine, latency sim.Time) *stubFabric {
	f := &stubFabric{eng: eng, ctrl: map[int]*core.Controller{}, latency: latency}
	f.hid = eng.Bind(f)
	return f
}

func (f *stubFabric) IsRouter(addr int) bool                { return false }
func (f *stubFabric) NearbyWindow(src, dst int) sim.Time    { return f.latency }
func (f *stubFabric) RegionWindow(src, router int) sim.Time { return f.latency }
func (f *stubFabric) SendSyncSignal(src, dst int, at sim.Time) {
	f.deliver(sim.Event{Op: stubSync, Node: int32(dst), A: int64(src)}, at)
}
func (f *stubFabric) BookRegion(src, router int, ti, at sim.Time) {}
func (f *stubFabric) SendMessage(src, dst int, value uint32, at sim.Time) {
	f.deliver(sim.Event{Op: stubMessage, Node: int32(dst), A: int64(src), B: int64(value)}, at)
}

// deliver posts ev to arrive one latency after at, clamped to the present.
func (f *stubFabric) deliver(ev sim.Event, at sim.Time) {
	ev.C = at + f.latency
	f.eng.Post(max(ev.C, f.eng.Now()), sim.PriDeliver, f.hid, ev)
}

func (f *stubFabric) HandleEvent(ev sim.Event) {
	dst, src := f.ctrl[int(ev.Node)], int(ev.A)
	if ev.Op == stubSync {
		dst.DeliverSyncSignal(src, ev.C)
	} else {
		dst.DeliverMessage(src, uint32(ev.B), ev.C)
	}
}

// collectSink records commits.
type collectSink struct {
	commits []commitRec
}

type commitRec struct {
	node, port int
	cw         uint32
	at         sim.Time
}

func (s *collectSink) Commit(node, port int, cw uint32, at sim.Time) {
	s.commits = append(s.commits, commitRec{node, port, cw, at})
}

func runProgram(t *testing.T, src string) (*core.Controller, *collectSink, *telf.Log) {
	t.Helper()
	eng := sim.NewEngine()
	fab := newStubFabric(eng, 2)
	sink := &collectSink{}
	log := telf.NewLog()
	c := core.NewController(eng, core.DefaultConfig(0), fab, sink, log)
	fab.ctrl[0] = c
	c.Load(isa.MustAssemble(src))
	c.Start()
	eng.Run(0)
	if c.Err() != nil {
		t.Fatalf("controller error: %v", c.Err())
	}
	return c, sink, log
}

func TestClassicalArithmetic(t *testing.T) {
	c, _, _ := runProgram(t, `
		addi $1, $0, 10
		addi $2, $0, 3
		add  $3, $1, $2
		sub  $4, $1, $2
		xor  $5, $1, $2
		slli $6, $1, 2
		srai $7, $1, 1
		slt  $8, $2, $1
		sltu $9, $1, $2
		halt
	`)
	checks := map[int]uint32{3: 13, 4: 7, 5: 9, 6: 40, 7: 5, 8: 1, 9: 0}
	for reg, want := range checks {
		if got := c.Reg(reg); got != want {
			t.Errorf("$%d = %d, want %d", reg, got, want)
		}
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	c, _, _ := runProgram(t, "addi $0, $0, 55\nhalt")
	if c.Reg(0) != 0 {
		t.Fatalf("$0 = %d, want 0", c.Reg(0))
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c, _, _ := runProgram(t, `
		li   $1, 0x1234
		addi $2, $0, 100
		sw   $1, 0($2)
		lw   $3, 0($2)
		lb   $4, 0($2)
		lh   $5, 0($2)
		sb   $1, 8($2)
		lbu  $6, 8($2)
		halt
	`)
	if got := c.Reg(3); got != 0x1234 {
		t.Errorf("lw = %#x", got)
	}
	if got := c.Reg(4); got != 0x34 {
		t.Errorf("lb = %#x", got)
	}
	if got := c.Reg(5); got != 0x1234 {
		t.Errorf("lh = %#x", got)
	}
	if got := c.Reg(6); got != 0x34 {
		t.Errorf("lbu = %#x", got)
	}
}

func TestSignExtensionOnLoads(t *testing.T) {
	c, _, _ := runProgram(t, `
		li  $1, -2
		sw  $1, 0($0)
		lb  $2, 0($0)
		lbu $3, 0($0)
		lh  $4, 0($0)
		lhu $5, 0($0)
		halt
	`)
	if int32(c.Reg(2)) != -2 {
		t.Errorf("lb = %d, want -2", int32(c.Reg(2)))
	}
	if c.Reg(3) != 0xFE {
		t.Errorf("lbu = %#x, want 0xFE", c.Reg(3))
	}
	if int32(c.Reg(4)) != -2 {
		t.Errorf("lh = %d, want -2", int32(c.Reg(4)))
	}
	if c.Reg(5) != 0xFFFE {
		t.Errorf("lhu = %#x, want 0xFFFE", c.Reg(5))
	}
}

func TestBranchLoop(t *testing.T) {
	c, _, _ := runProgram(t, `
		li $1, 0
		li $2, 10
	loop:
		addi $1, $1, 1
		bne $1, $2, loop
		halt
	`)
	if got := c.Reg(1); got != 10 {
		t.Fatalf("$1 = %d, want 10", got)
	}
}

func TestJalLinksAndJalrReturns(t *testing.T) {
	c, _, _ := runProgram(t, `
		jal $1, sub      # call
		addi $3, $0, 7   # executed after return
		halt
	sub:
		addi $2, $0, 42
		jalr $0, $1, 0   # return
	`)
	if c.Reg(2) != 42 || c.Reg(3) != 7 {
		t.Fatalf("$2=%d $3=%d, want 42,7", c.Reg(2), c.Reg(3))
	}
}

// runFailing runs src on one controller and returns the error it halted on.
func runFailing(t *testing.T, src string) error {
	t.Helper()
	eng := sim.NewEngine()
	c := core.NewController(eng, core.DefaultConfig(0), newStubFabric(eng, 1), nil, nil)
	c.Load(isa.MustAssemble(src))
	c.Start()
	eng.RunUntil(100_000) // a deadline: the bug a case pins may be a spin
	if !c.Halted() || c.Err() == nil {
		t.Fatalf("%q: halted %v, err %v; want a runtime error", src, c.Halted(), c.Err())
	}
	return c.Err()
}

// A jalr whose target is not a multiple of 4 raises RV32I's
// instruction-address-misaligned: the core fails rather than truncating
// the target onto some instruction (here, itself, for ever).
func TestMisalignedJalrFails(t *testing.T) {
	err := runFailing(t, "addi $1, $0, 6\njalr $0, $1, 0\nhalt")
	if want := "core: node 0 pc=1: misaligned jump target 6"; err.Error() != want {
		t.Fatalf("err %q, want %q", err, want)
	}
}

// recv and fmr fail on a negative address, which names no mailbox or
// channel, instead of indexing their queues with it.
func TestNegativeFetchAddressFails(t *testing.T) {
	for src, want := range map[string]string{
		"recv $1, -1\nhalt":     "core: node 0 pc=0: recv from address -1",
		"fmr $1, -2048\nhalt":   "core: node 0 pc=0: fmr from address -2048",
		"nop\nfmr $2, -3\nhalt": "core: node 0 pc=1: fmr from address -3",
	} {
		if err := runFailing(t, src); err.Error() != want {
			t.Errorf("err %q, want %q", err, want)
		}
	}
}

func TestMemoryOutOfBoundsHalts(t *testing.T) {
	eng := sim.NewEngine()
	c := core.NewController(eng, core.DefaultConfig(0), newStubFabric(eng, 1), nil, nil)
	c.Load(isa.MustAssemble("li $1, -4\nlw $2, 0($1)\nhalt"))
	c.Start()
	eng.Run(0)
	if c.Err() == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

// TestMemoryIsItsWrittenPrefix: data memory is allocated as it is stored
// to. Everything past the last store reads 0, the bounds are MemSize's
// whatever has been written, and Reset leaves nothing behind.
func TestMemoryIsItsWrittenPrefix(t *testing.T) {
	c, _, _ := runProgram(t, `
		li   $1, -1
		addi $2, $0, 40
		lw   $3, 0($2)
		sh   $1, 0($2)
		lw   $4, 0($2)
		lw   $5, 1000($2)
		halt
	`)
	if c.Reg(3) != 0 || c.Reg(4) != 0xffff || c.Reg(5) != 0 {
		t.Fatalf("lw before the store, across its end, far past it = %#x %#x %#x, want 0 0xffff 0",
			c.Reg(3), c.Reg(4), c.Reg(5))
	}
	if got := c.ReadMem(38, 6); !bytes.Equal(got, []byte{0, 0, 0xff, 0xff, 0, 0}) {
		t.Fatalf("ReadMem across the written prefix = %v", got)
	}
	size := c.Cfg.MemSize
	if got := c.ReadMem(size-4, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("ReadMem of the last word = %v, want zeros", got)
	}
	if c.ReadMem(size-3, 4) != nil || c.ReadMem(-1, 1) != nil {
		t.Fatal("ReadMem past MemSize did not fail")
	}
	if b, ok := c.MemByte(41); b != 0xff || !ok {
		t.Fatalf("MemByte(41) = %#x, %v", b, ok)
	}
	if b, ok := c.MemByte(size - 1); b != 0 || !ok {
		t.Fatalf("MemByte(last) = %#x, %v", b, ok)
	}
	if _, ok := c.MemByte(size); ok {
		t.Fatal("MemByte past MemSize did not fail")
	}
	c.Reset()
	if b, _ := c.MemByte(41); b != 0 {
		t.Fatalf("MemByte(41) = %#x after Reset", b)
	}

	for _, src := range []string{"sw $0, -4($1)", "lw $2, -2($1)", "sb $0, 0($1)", "lh $2, -1($1)"} {
		eng := sim.NewEngine()
		c := core.NewController(eng, core.Config{ID: 0, MemSize: 256}, newStubFabric(eng, 1), nil, nil)
		c.Load(isa.MustAssemble("addi $1, $0, 256\n" + src + "\nhalt"))
		c.Start()
		eng.Run(0)
		inBounds := strings.HasSuffix(src, "-4($1)")
		if (c.Err() == nil) != inBounds {
			t.Fatalf("%q at the top of a 256-byte memory: err = %v", src, c.Err())
		}
	}
}

func TestWaitAndCommitTiming(t *testing.T) {
	// Timing-point algebra: the classical setup instructions do not delay
	// commits; waits define exact commit cycles.
	_, sink, _ := runProgram(t, `
		addi $1, $0, 5    # pipeline cycle 1
		waiti 10          # timing point 10
		cw.i.i 3, 7       # commits at 10
		waiti 20          # timing point 30
		cw.i.i 4, 9       # commits at 30
		cw.i.i 5, 1       # same point: commits at 30
		halt
	`)
	if len(sink.commits) != 3 {
		t.Fatalf("commits = %d, want 3", len(sink.commits))
	}
	if sink.commits[0].at != 10 || sink.commits[0].port != 3 || sink.commits[0].cw != 7 {
		t.Errorf("commit 0 = %+v", sink.commits[0])
	}
	if sink.commits[1].at != 30 {
		t.Errorf("commit 1 at %d, want 30", sink.commits[1].at)
	}
	if sink.commits[2].at != 30 || sink.commits[2].port != 5 {
		t.Errorf("commit 2 = %+v", sink.commits[2])
	}
}

func TestTimingViolationFlagged(t *testing.T) {
	// 20 classical instructions before a cw scheduled at cycle 2: the
	// pipeline (1 instr/cycle) cannot make it; the commit slips and the
	// violation is logged.
	src := "waiti 2\n"
	for i := 0; i < 20; i++ {
		src += "addi $1, $1, 1\n"
	}
	src += "cw.i.i 1, 1\nhalt"
	c, sink, log := runProgram(t, src)
	if log.Count(telf.Violation) != 1 {
		t.Fatalf("violations = %d, want 1", log.Count(telf.Violation))
	}
	if c.Stats.Violations != 1 {
		t.Fatalf("stats violations = %d", c.Stats.Violations)
	}
	if sink.commits[0].at <= 2 {
		t.Fatalf("late commit at %d, should slip past 2", sink.commits[0].at)
	}
}

func TestWaitrUsesRegister(t *testing.T) {
	_, sink, _ := runProgram(t, `
		li $1, 120
		waitr $1
		cw.i.i 2, 2
		halt
	`)
	if sink.commits[0].at != 120 {
		t.Fatalf("commit at %d, want 120", sink.commits[0].at)
	}
}

// twoControllers runs srcA on node 0 and srcB on node 1 over a latency-L
// stub link and returns both controllers plus the shared sink.
func twoControllers(t *testing.T, srcA, srcB string, latency sim.Time) (*core.Controller, *core.Controller, *collectSink) {
	t.Helper()
	eng := sim.NewEngine()
	fab := newStubFabric(eng, latency)
	sink := &collectSink{}
	log := telf.NewLog()
	a := core.NewController(eng, core.DefaultConfig(0), fab, sink, log)
	b := core.NewController(eng, core.DefaultConfig(1), fab, sink, log)
	fab.ctrl[0], fab.ctrl[1] = a, b
	a.Load(isa.MustAssemble(srcA))
	b.Load(isa.MustAssemble(srcB))
	a.Start()
	b.Start()
	eng.Run(0)
	if a.Err() != nil || b.Err() != nil {
		t.Fatalf("errors: a=%v b=%v", a.Err(), b.Err())
	}
	return a, b, sink
}

func commitsOf(s *collectSink, node int) []commitRec {
	var out []commitRec
	for _, c := range s.commits {
		if c.node == node {
			out = append(out, c)
		}
	}
	return out
}

func TestNearbySyncZeroOverhead(t *testing.T) {
	// Fig. 5(a): both controllers book L cycles before their earliest start;
	// the synchronous task commits at max(T0, T1) on both — zero overhead.
	// Node 0 earliest start: booking at 10 + window 2 = 12... then both
	// commit 8 cycles after resume.
	const L = 2
	a, b, sink := twoControllers(t,
		`waiti 10
		 sync 1
		 waiti 8
		 cw.i.i 1, 1
		 halt`,
		`waiti 30
		 sync 0
		 waiti 8
		 cw.i.i 1, 2
		 halt`, L)
	ca, cb := commitsOf(sink, 0), commitsOf(sink, 1)
	if len(ca) != 1 || len(cb) != 1 {
		t.Fatalf("commits: %d, %d", len(ca), len(cb))
	}
	// Booking times 10 and 30. The paused timer resumes where it left off,
	// so both synchronous tasks commit at max(B0,B1) + 8 = 38 — the same
	// wall cycle, anchored by the later booking (zero overhead for it).
	if ca[0].at != 38 || cb[0].at != 38 {
		t.Fatalf("commits at %d and %d, want both 38", ca[0].at, cb[0].at)
	}
	// The slower node (later booking) pauses zero cycles.
	if b.Stats.StallSync != 0 {
		t.Fatalf("late node stalled %d cycles, want 0", b.Stats.StallSync)
	}
	if a.Stats.StallSync != 20 {
		t.Fatalf("early node stalled %d cycles, want 20", a.Stats.StallSync)
	}
}

func TestNearbySyncSymmetric(t *testing.T) {
	// Swapping which controller books first must not change the common
	// resume time (§4.2: "If we swap C0 and C1 ... both controllers still
	// begin executing the synchronous task at the same time").
	progA := "waiti 30\nsync 1\nwaiti 8\ncw.i.i 1,1\nhalt"
	progB := "waiti 10\nsync 0\nwaiti 8\ncw.i.i 1,2\nhalt"
	_, _, sink := twoControllers(t, progA, progB, 2)
	ca, cb := commitsOf(sink, 0), commitsOf(sink, 1)
	if ca[0].at != cb[0].at {
		t.Fatalf("commits misaligned: %d vs %d", ca[0].at, cb[0].at)
	}
	if ca[0].at != 38 {
		t.Fatalf("commit at %d, want 38", ca[0].at)
	}
}

func TestNearbySyncBothSameTime(t *testing.T) {
	prog := func(other int) string {
		return `waiti 10
sync ` + string(rune('0'+other)) + `
waiti 8
cw.i.i 1, 1
halt`
	}
	_, _, sink := twoControllers(t, prog(1), prog(0), 3)
	ca, cb := commitsOf(sink, 0), commitsOf(sink, 1)
	// Both book at 10; signals arrive exactly at Condition I (cycle 13), so
	// neither timer pauses: true zero-overhead case, commits at 10+8=18.
	if ca[0].at != 18 || cb[0].at != 18 {
		t.Fatalf("commits at %d, %d want 18", ca[0].at, cb[0].at)
	}
}

func TestRepeatedSyncsPairInOrder(t *testing.T) {
	// Two sequential syncs: flags queue per neighbor and pair FIFO (§4.1,
	// "stacked boxes for each neighbor ... cleared after being read").
	progA := `waiti 10
sync 1
waiti 10
cw.i.i 1,1
sync 1
waiti 5
cw.i.i 1,2
halt`
	progB := `waiti 40
sync 0
waiti 10
cw.i.i 1,1
sync 0
waiti 5
cw.i.i 1,2
halt`
	_, _, sink := twoControllers(t, progA, progB, 2)
	ca, cb := commitsOf(sink, 0), commitsOf(sink, 1)
	if len(ca) != 2 || len(cb) != 2 {
		t.Fatalf("commits %d,%d want 2,2", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].at != cb[i].at {
			t.Fatalf("pair %d misaligned: %d vs %d", i, ca[i].at, cb[i].at)
		}
	}
	if !(ca[1].at > ca[0].at) {
		t.Fatalf("second sync commit %d not after first %d", ca[1].at, ca[0].at)
	}
}

func TestSendRecvFeedback(t *testing.T) {
	// Node 0 computes a value and sends it; node 1 blocks in recv, then
	// branches on it (a feedback skeleton).
	a, b, _ := twoControllers(t,
		`addi $1, $0, 1
		 send $1, 1
		 halt`,
		`recv $2, 0
		 beq $2, $0, skip
		 addi $3, $0, 77
	skip:
		 halt`, 5)
	_ = a
	if b.Reg(3) != 77 {
		t.Fatalf("conditional path not taken: $3 = %d", b.Reg(3))
	}
	if b.Stats.StallRecv == 0 {
		t.Fatal("receiver should have stalled waiting for the message")
	}
}

func TestRecvOrderIsFIFO(t *testing.T) {
	_, b, _ := twoControllers(t,
		`addi $1, $0, 11
		 send $1, 1
		 addi $1, $0, 22
		 send $1, 1
		 halt`,
		`recv $2, 0
		 recv $3, 0
		 halt`, 3)
	if b.Reg(2) != 11 || b.Reg(3) != 22 {
		t.Fatalf("got %d,%d want 11,22", b.Reg(2), b.Reg(3))
	}
}

func TestFMRBlocksUntilResult(t *testing.T) {
	eng := sim.NewEngine()
	fab := newStubFabric(eng, 1)
	c := core.NewController(eng, core.DefaultConfig(0), fab, nil, nil)
	fab.ctrl[0] = c
	c.Load(isa.MustAssemble("fmr $1, 3\nhalt"))
	c.Start()
	// Result arrives on channel 3 at cycle 100.
	c.PostResult(3, 1, 100)
	eng.Run(0)
	if !c.Halted() {
		t.Fatalf("controller stuck: %v", c.Blocked())
	}
	if c.Reg(1) != 1 {
		t.Fatalf("$1 = %d, want 1", c.Reg(1))
	}
	if c.Stats.StallFMR == 0 {
		t.Fatal("expected fmr stall")
	}
}

func TestHaltStopsExecution(t *testing.T) {
	c, sink, _ := runProgram(t, "cw.i.i 1,1\nhalt\ncw.i.i 1,2")
	if !c.Halted() {
		t.Fatal("not halted")
	}
	if len(sink.commits) != 1 {
		t.Fatalf("instructions after halt executed: %d commits", len(sink.commits))
	}
}

func TestRunOffEndHaltsCleanly(t *testing.T) {
	c, _, _ := runProgram(t, "addi $1, $0, 4")
	if !c.Halted() || c.Err() != nil {
		t.Fatalf("halted=%v err=%v", c.Halted(), c.Err())
	}
}

func TestBurstBudgetYieldsFairly(t *testing.T) {
	// A long classical loop must not starve the other controller: both
	// finish even though node 0 runs 50k instructions.
	a, b, _ := twoControllers(t,
		`li $2, 25000
	loop:
		addi $1, $1, 1
		bne $1, $2, loop
		halt`,
		`addi $1, $0, 1
		halt`, 1)
	if !a.Halted() || !b.Halted() {
		t.Fatal("starvation: not all controllers finished")
	}
	if a.Reg(1) != 25000 {
		t.Fatalf("$1 = %d", a.Reg(1))
	}
}

func TestDeadlineStopsInfiniteProgram(t *testing.T) {
	eng := sim.NewEngine()
	fab := newStubFabric(eng, 1)
	c := core.NewController(eng, core.DefaultConfig(0), fab, nil, nil)
	fab.ctrl[0] = c
	// Fig. 12-style endless outer loop.
	c.Load(isa.MustAssemble("loop:\nwaiti 10\ncw.i.i 1,1\njal $0,loop"))
	c.Start()
	eng.RunUntil(10_000)
	if c.Halted() {
		t.Fatal("infinite loop halted unexpectedly")
	}
	if c.Stats.Commits == 0 {
		t.Fatal("no commits")
	}
}

func TestStatsCounting(t *testing.T) {
	c, _, _ := runProgram(t, `
		addi $1, $0, 1
		waiti 4
		cw.i.i 1, 1
		cw.i.i 2, 1
		halt
	`)
	if c.Stats.Commits != 2 {
		t.Fatalf("commits = %d", c.Stats.Commits)
	}
	if c.Stats.Instrs < 5 {
		t.Fatalf("instrs = %d", c.Stats.Instrs)
	}
}
