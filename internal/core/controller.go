package core

import (
	"fmt"
	"slices"

	"dhisq/internal/isa"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// Fabric is the controller's view of the distributed interconnect
// (implemented by internal/network). All times are absolute cycles; the
// fabric is responsible for scheduling deliveries on the engine and for
// knowing the calibrated link latencies that parameterize BISP windows.
type Fabric interface {
	// IsRouter reports whether a sync target address names a router
	// (region-level sync) rather than a neighbor controller.
	IsRouter(addr int) bool
	// NearbyWindow returns the SyncU countdown N for the (src,dst) neighbor
	// pair — the calibrated one-way signal latency of §4.1.
	NearbyWindow(src, dst int) sim.Time
	// RegionWindow returns the booking window N_i for (controller, router):
	// the lead a booking needs for zero-overhead region sync (§4.3).
	RegionWindow(src, router int) sim.Time
	// SendSyncSignal propagates the 1-bit nearby sync signal emitted at
	// cycle `at`; the fabric delivers it to dst with link latency applied.
	SendSyncSignal(src, dst int, at sim.Time)
	// BookRegion sends a region-sync booking carrying earliest start time ti
	// toward the target router, emitted at cycle `at`.
	BookRegion(src, router int, ti, at sim.Time)
	// SendMessage transmits a classical value (MsgU, §3.1.4) emitted at `at`.
	SendMessage(src, dst int, value uint32, at sim.Time)
}

// CWSink receives committed codewords — the digital/analog boundary. The
// quantum chip model (internal/chip) and the pulse-level device models
// (internal/physics) implement it; a nil-safe no-op sink is used for pure
// timing studies.
type CWSink interface {
	Commit(node, port int, cw uint32, at sim.Time)
}

// NopSink discards codewords (timing-only simulations).
type NopSink struct{}

// Commit implements CWSink.
func (NopSink) Commit(int, int, uint32, sim.Time) {}

// Config parameterizes one HISQ core. The defaults mirror the DQCtrl boards
// of §6.1.
type Config struct {
	ID      int // global controller address
	Ports   int // number of codeword queues (28 control board, 8 readout)
	MemSize int // data memory bytes
}

// DefaultConfig returns a control-board-like configuration.
func DefaultConfig(id int) Config {
	return Config{ID: id, Ports: 28, MemSize: 64 << 10}
}

// burstBudget is the number of instructions a core executes per engine
// turn before it yields so the other cores make progress.
const burstBudget = 4096

// BlockReason says why a controller's pipeline is stalled.
type BlockReason uint8

const (
	NotBlocked      BlockReason = iota
	BlockRecv                   // recv with empty mailbox
	BlockFMR                    // fmr with no pending measurement result
	BlockSyncNear               // nearby sync awaiting the partner's signal
	BlockSyncRegion             // region sync awaiting the router's time-point broadcast
)

func (b BlockReason) String() string {
	switch b {
	case NotBlocked:
		return "running"
	case BlockRecv:
		return "recv"
	case BlockFMR:
		return "fmr"
	case BlockSyncNear:
		return "sync-near"
	case BlockSyncRegion:
		return "sync-region"
	}
	return "unknown"
}

// Stats aggregates per-controller execution counters.
type Stats struct {
	Instrs     uint64
	Commits    uint64
	Syncs      uint64
	Violations uint64
	StallRecv  sim.Time
	StallFMR   sim.Time
	StallSync  sim.Time
	// StallNet is the total queueing delay the contention-aware fabric
	// charged to this controller's outgoing traffic (zero when the
	// contention model is disabled). Credited by the fabric through
	// AddNetStall, not by the pipeline itself.
	StallNet sim.Time
}

type delivered struct {
	val uint32
	at  sim.Time
}

// fifo is a queue of delivered values.
type fifo = sim.Fifo[delivered]

// growFifos extends qs so index i exists (queues are indexed by dense
// small ids: source controller, result channel, sync neighbor).
func growFifos(qs []fifo, i int) []fifo {
	for len(qs) <= i {
		qs = append(qs, fifo{})
	}
	return qs
}

// Controller is one HISQ core: classical pipeline + TCU + SyncU + MsgU
// (Fig. 3a). It executes an assembled HISQ program against a Fabric and a
// CWSink on a shared simulation engine.
type Controller struct {
	Cfg  Config
	eng  *sim.Engine
	fab  Fabric
	sink CWSink
	log  *telf.Log

	prog *isa.Program
	regs [32]uint32
	// mem is the written prefix of the Cfg.MemSize-byte data memory: store
	// (the only writer) grows it, and every byte beyond it reads 0. A core
	// that stores nothing allocates nothing, and Reset has nothing to clear.
	mem []byte
	pc  int

	tc sim.Time // classical pipeline clock (absolute cycles)
	tl timeline // TCU timing manager

	mail    []fifo // MsgU inbox, per source controller
	results []fifo // measurement result FIFOs, per channel
	syncSig []fifo // SyncU per-neighbor signal arrival FIFOs (at only)

	block     BlockReason
	blockOn   int      // peer/channel/router id while blocked
	blockAt   sim.Time // pipeline time when the block began
	pendCondI sim.Time // Condition-I time of an in-flight sync
	inRun     bool

	// hid is the engine handler this core's typed events (evRun, evCommit,
	// evResult) are posted to, bound once at construction; pend* is the
	// in-flight codeword commit evCommit acts on. A controller has at most
	// one commit pending (the pipeline yields until it fires).
	hid      sim.HandlerID
	pendPort int
	pendCW   uint32
	pendCT   sim.Time

	halted bool
	err    error

	Stats Stats
}

// NewController builds a controller bound to the engine, fabric, sink and
// TELF log. Any of fab may be nil only for single-node programs that never
// execute sync/send; sink and log may be nil (replaced by no-ops).
func NewController(eng *sim.Engine, cfg Config, fab Fabric, sink CWSink, log *telf.Log) *Controller {
	if cfg.MemSize <= 0 {
		cfg.MemSize = 64 << 10
	}
	if sink == nil {
		sink = NopSink{}
	}
	if log == nil {
		log = telf.NewLog()
	}
	c := &Controller{
		Cfg:  cfg,
		eng:  eng,
		fab:  fab,
		sink: sink,
		log:  log,
	}
	c.hid = eng.Bind(c)
	return c
}

// The typed engine events a controller posts to itself.
const (
	evRun    uint8 = iota // resume the pipeline
	evCommit              // deliver the pending codeword commit, then resume
	evResult              // measurement result: A channel, B value, C availAt
)

// HandleEvent implements sim.Handler.
func (c *Controller) HandleEvent(ev sim.Event) {
	switch ev.Op {
	case evRun:
		c.run()
	case evCommit:
		c.doCommit()
		c.run()
	case evResult:
		c.PushResult(int(ev.A), uint32(ev.B), ev.C)
	}
}

// Load installs a program and resets execution state (registers, memory,
// clocks, queues are cleared).
func (c *Controller) Load(p *isa.Program) {
	c.prog = p
	c.Reset()
}

// Reset restores the core to its just-loaded state — registers, data
// memory, clocks, mailboxes, result FIFOs, stall state and counters clear,
// while the installed program stays in place. Memory and every queue's
// backing array are reused, not reallocated (store zeroes what it
// re-extends), so resetting a loaded core is
// cheap; together with Engine.Reset it is what lets a machine re-run the
// same compiled program shot after shot.
func (c *Controller) Reset() {
	c.regs = [32]uint32{}
	c.mem = c.mem[:0]
	c.pc = 0
	c.tc = 0
	c.tl.reset()
	for i := range c.mail {
		c.mail[i].Reset()
	}
	for i := range c.results {
		c.results[i].Reset()
	}
	for i := range c.syncSig {
		c.syncSig[i].Reset()
	}
	c.block = NotBlocked
	c.blockOn = 0
	c.blockAt = 0
	c.pendCondI = 0
	c.inRun = false
	c.halted = false
	c.err = nil
	c.Stats = Stats{}
}

// Start schedules the controller's first execution turn at the current
// engine time.
func (c *Controller) Start() {
	c.post(c.eng.Now(), sim.PriResume, sim.Event{Op: evRun})
}

// Halted reports whether the core has stopped (halt instruction, program
// end, or runtime error).
func (c *Controller) Halted() bool { return c.halted }

// Err returns the runtime error that halted the core, if any.
func (c *Controller) Err() error { return c.err }

// Blocked returns the current pipeline stall reason.
func (c *Controller) Blocked() BlockReason { return c.block }

// PC returns the current program counter (instruction index).
func (c *Controller) PC() int { return c.pc }

// Reg returns the value of GPR n.
func (c *Controller) Reg(n int) uint32 { return c.regs[n&31] }

// EndTime returns the controller-local completion time: the later of the
// pipeline clock and the TCU timing point.
func (c *Controller) EndTime() sim.Time {
	tp := c.tl.Point()
	if c.tc > tp {
		return c.tc
	}
	return tp
}

// Log exposes the TELF log the controller writes to.
func (c *Controller) Log() *telf.Log { return c.log }

// ReadMem copies n bytes of data memory starting at addr (for tests/tools).
func (c *Controller) ReadMem(addr, n int) []byte {
	if addr < 0 || n < 0 || addr+n > c.Cfg.MemSize {
		return nil
	}
	out := make([]byte, n)
	if addr < len(c.mem) {
		copy(out, c.mem[addr:])
	}
	return out
}

// MemByte reads one byte of data memory in place; ok is false outside it.
func (c *Controller) MemByte(addr int) (b byte, ok bool) {
	if addr < 0 || addr >= c.Cfg.MemSize {
		return 0, false
	}
	if addr < len(c.mem) {
		b = c.mem[addr]
	}
	return b, true
}

func (c *Controller) fail(format string, args ...any) {
	c.err = fmt.Errorf("core: node %d pc=%d: %s", c.Cfg.ID, c.pc, fmt.Sprintf(format, args...))
	c.haltNow()
}

func (c *Controller) haltNow() {
	c.halted = true
	c.log.Add(telf.Event{Time: c.EndTime(), Node: c.Cfg.ID, Kind: telf.Halt})
}

func (c *Controller) setReg(n uint8, v uint32) {
	if n != 0 {
		c.regs[n] = v
	}
}

// post schedules one of this core's events no earlier than t; events cannot
// be scheduled in the engine's past, but logical timestamps carried in
// payloads stay exact.
func (c *Controller) post(t sim.Time, pri sim.Priority, ev sim.Event) {
	c.eng.Post(max(t, c.eng.Now()), pri, c.hid, ev)
}

// ---------------------------------------------------------------------------
// Delivery entry points (called by the fabric / chip model via engine events)
// ---------------------------------------------------------------------------

// DeliverMessage appends a classical message from src arriving at cycle
// `arrival` and wakes the pipeline if it is blocked in recv on that source.
func (c *Controller) DeliverMessage(src int, val uint32, arrival sim.Time) {
	c.mail = growFifos(c.mail, src)
	c.mail[src].Push(delivered{val: val, at: arrival})
	if c.block == BlockRecv && c.blockOn == src && !c.halted {
		c.block = NotBlocked
		c.run()
	}
}

// DeliverSyncSignal records a nearby-sync 1-bit signal from neighbor src
// (SyncU flag set, §4.1) and completes an in-flight sync if one is waiting.
func (c *Controller) DeliverSyncSignal(src int, arrival sim.Time) {
	c.syncSig = growFifos(c.syncSig, src)
	c.syncSig[src].Push(delivered{at: arrival})
	if c.block == BlockSyncNear && c.blockOn == src && !c.halted {
		a := c.syncSig[src].Pop().at
		c.block = NotBlocked
		c.finishSync(src, c.pendCondI, a)
		c.run()
	}
}

// DeliverRegionResume completes a region sync: the router's broadcast of the
// common time-point tm arrived at cycle `arrival` (§4.3).
func (c *Controller) DeliverRegionResume(router int, tm, arrival sim.Time) {
	if c.block != BlockSyncRegion || c.blockOn != router || c.halted {
		c.fail("unexpected region-sync resume from router %d", router)
		return
	}
	c.block = NotBlocked
	r := tm
	if arrival > r {
		// The booking window was violated: the notification could not make
		// it back by tm, so this member resumes late (Fig. 7 situation).
		c.log.Add(telf.Event{Time: arrival, Node: c.Cfg.ID, Kind: telf.SyncLate, A: int64(router), B: arrival - tm})
		r = arrival
	}
	c.finishSync(router, c.pendCondI, r)
	c.run()
}

// AddNetStall credits queueing delay the fabric charged to this
// controller's outgoing traffic (contention accounting; the fabric calls
// it at reservation time).
func (c *Controller) AddNetStall(d sim.Time) { c.Stats.StallNet += d }

// PostResult schedules the delivery of a measurement result: PushResult(ch,
// val, availAt) runs as an engine event at availAt. It is what a chip or
// device model's result callback calls.
func (c *Controller) PostResult(ch int, val uint32, availAt sim.Time) {
	c.post(availAt, sim.PriDeliver, sim.Event{Op: evResult, A: int64(ch), B: int64(val), C: availAt})
}

// PushResult delivers a measurement result for channel ch, available at
// cycle availAt (measurement window + discrimination latency already
// applied by the chip model).
func (c *Controller) PushResult(ch int, val uint32, availAt sim.Time) {
	c.results = growFifos(c.results, ch)
	c.results[ch].Push(delivered{val: val, at: availAt})
	if c.block == BlockFMR && c.blockOn == ch && !c.halted {
		c.block = NotBlocked
		c.run()
	}
}

// finishSync applies a resolved synchronization to the TCU timer: pause at
// condI, resume at max(condI, peerTime).
func (c *Controller) finishSync(target int, condI, peer sim.Time) {
	r := condI
	if peer > r {
		r = peer
	}
	c.tl.AddGate(condI, r)
	c.Stats.Syncs++
	if r > condI {
		c.Stats.StallSync += r - condI
	}
	c.log.Add(telf.Event{Time: r, Node: c.Cfg.ID, Kind: telf.SyncDone, A: int64(target), B: r})
	c.pc++ // the sync instruction retires on resolution
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

// run executes instructions until the core halts, blocks, or exhausts its
// burst budget (in which case it reschedules itself so other nodes make
// progress).
func (c *Controller) run() {
	if c.inRun {
		panic("core: reentrant run")
	}
	if c.prog == nil {
		c.fail("no program loaded")
		return
	}
	// No defer clears inRun: a panic escaping a shot leaves it set, and
	// Reset clears it before the core runs again.
	c.inRun = true
	for budget := burstBudget; !c.halted; budget-- {
		if budget <= 0 {
			c.post(c.tc, sim.PriResume, sim.Event{Op: evRun})
			break
		}
		if c.pc < 0 || c.pc >= len(c.prog.Instrs) {
			c.haltNow() // running off the end is a clean stop
			break
		}
		if !c.step() {
			break // blocked or yielded; a future event resumes us
		}
	}
	c.inRun = false
}

// step executes the instruction at pc. It returns false when the pipeline
// must yield (blocked on an external event or a scheduled commit).
func (c *Controller) step() bool {
	in := c.prog.Instrs[c.pc]
	c.Stats.Instrs++
	switch in.Op {
	case isa.OpRECV:
		return c.fetch(in, c.mail, BlockRecv, &c.Stats.StallRecv, telf.MsgRecv)
	case isa.OpFMR:
		return c.fetch(in, c.results, BlockFMR, &c.Stats.StallFMR, telf.MeasResult)
	case isa.OpSEND:
		c.tc++
		dst := int(in.Imm)
		val := c.regs[in.Rs1]
		// The MsgU issues in TCU order: a send cannot leave before the wall
		// clock of the controller's last resume point, even though the
		// classical pipeline may have run ahead during a TCU stall. This
		// keeps every delivery in global timestamp order (conservative
		// modeling decision; see DESIGN.md §2).
		at := c.tc
		if now := c.eng.Now(); now > at {
			at = now
		}
		c.log.Add(telf.Event{Time: at, Node: c.Cfg.ID, Kind: telf.MsgSend, A: int64(dst), B: int64(val)})
		c.fab.SendMessage(c.Cfg.ID, dst, val, at)
		c.pc++
	case isa.OpSYNC:
		return c.execSync(int(in.Imm))
	case isa.OpWAITI:
		c.tc++
		c.tl.Advance(sim.Time(in.Imm))
		c.pc++
	case isa.OpWAITR:
		c.tc++
		c.tl.Advance(sim.Time(c.regs[in.Rs1]))
		c.pc++
	case isa.OpCWII, isa.OpCWIR, isa.OpCWRI, isa.OpCWRR:
		return c.execCW(in)
	case isa.OpHALT:
		c.tc++
		c.haltNow()
		return false
	default:
		c.tc++
		if !c.execClassical(in) {
			return false // runtime error; fail() already halted us
		}
	}
	return !c.halted
}

// fetch retires recv and fmr: the next value in queue Imm of qs, a source
// controller's mailbox or a result channel. It blocks until the value is
// delivered, and the pipeline and the timer resume where it arrived (§3.2).
func (c *Controller) fetch(in isa.Instr, qs []fifo, reason BlockReason, stall *sim.Time, kind telf.Kind) bool {
	src := int(in.Imm)
	if src < 0 {
		c.fail("%s from address %d", in.Op, src)
		return false
	}
	if src >= len(qs) || qs[src].Len() == 0 {
		c.block, c.blockOn, c.blockAt = reason, src, c.tc
		return false
	}
	m := qs[src].Pop()
	c.tc++
	if m.at > c.tc {
		*stall += m.at - c.tc
		c.tc = m.at
	}
	c.tl.AnchorAt(c.tc)
	c.setReg(in.Rd, m.val)
	c.log.Add(telf.Event{Time: c.tc, Node: c.Cfg.ID, Kind: kind, A: int64(src), B: int64(m.val)})
	c.pc++
	return true
}

// execCW commits a codeword trigger: "send codeword, to port, at the current
// timing point" (§3.1.2). If the commit time is in the engine's future the
// pipeline yields until then so that all chip-model commits arrive in global
// time order.
func (c *Controller) execCW(in isa.Instr) bool {
	c.tc++
	var port int
	var cw uint32
	switch in.Op {
	case isa.OpCWII:
		port, cw = int(in.Rd), uint32(in.Imm)
	case isa.OpCWIR:
		port, cw = int(in.Rd), c.regs[in.Rs1]
	case isa.OpCWRI:
		port, cw = int(c.regs[in.Rs1]), uint32(in.Imm)
	case isa.OpCWRR:
		port, cw = int(c.regs[in.Rs1]), c.regs[in.Rs2]
	}
	if c.Cfg.Ports > 0 && (port < 0 || port >= c.Cfg.Ports) {
		c.fail("cw to port %d but board has %d ports", port, c.Cfg.Ports)
		return false
	}
	ct := c.tl.Point()
	if c.tc > ct {
		// The pipeline fell behind the timing point: the event commits late.
		c.Stats.Violations++
		c.log.Add(telf.Event{Time: c.tc, Node: c.Cfg.ID, Kind: telf.Violation, A: int64(port), B: c.tc - ct})
		ct = c.tc
	}
	c.Stats.Commits++
	c.pc++
	c.pendPort, c.pendCW, c.pendCT = port, cw, ct
	if ct > c.eng.Now() {
		c.post(ct, sim.PriResume, sim.Event{Op: evCommit})
		return false
	}
	c.doCommit()
	return true
}

// doCommit delivers the pending codeword commit to the sink. The pending
// fields are stable until the commit fires: execCW yields the pipeline
// whenever the commit is deferred, so no second commit can overwrite them.
func (c *Controller) doCommit() {
	c.sink.Commit(c.Cfg.ID, c.pendPort, c.pendCW, c.pendCT)
	c.log.Add(telf.Event{Time: c.pendCT, Node: c.Cfg.ID, Kind: telf.CWCommit, A: int64(c.pendCW), B: int64(c.pendPort)})
}

// execSync books a synchronization (BISP §4.1/§4.3). The booking time is the
// sync event's position in the timed stream, or the pipeline clock if the
// pipeline is running behind it.
func (c *Controller) execSync(tgt int) bool {
	if c.fab == nil {
		c.fail("sync %d with no fabric attached", tgt)
		return false
	}
	c.tc++
	bEff := c.tl.Point()
	if c.tc > bEff {
		// Late booking: the pipeline delivered the sync event after its
		// scheduled position. The TCU processes it now, and — as with any
		// queue-based timing control — subsequent events cannot commit
		// before the event that precedes them was enqueued, so the timing
		// point re-anchors here. This keeps Condition I exactly N cycles
		// before the synchronized commit, preserving co-commitment.
		bEff = c.tc
		c.tl.AnchorAt(bEff)
	}
	if c.fab.IsRouter(tgt) {
		n := c.fab.RegionWindow(c.Cfg.ID, tgt)
		ti := bEff + n
		c.log.Add(telf.Event{Time: bEff, Node: c.Cfg.ID, Kind: telf.SyncBook, A: int64(tgt), B: ti})
		c.fab.BookRegion(c.Cfg.ID, tgt, ti, bEff)
		c.block, c.blockOn, c.blockAt = BlockSyncRegion, tgt, c.tc
		c.pendCondI = ti
		return false
	}
	n := c.fab.NearbyWindow(c.Cfg.ID, tgt)
	condI := bEff + n
	c.log.Add(telf.Event{Time: bEff, Node: c.Cfg.ID, Kind: telf.SyncBook, A: int64(tgt), B: condI})
	c.fab.SendSyncSignal(c.Cfg.ID, tgt, bEff)
	if tgt < len(c.syncSig) && c.syncSig[tgt].Len() > 0 {
		a := c.syncSig[tgt].Pop().at
		c.finishSync(tgt, condI, a)
		return true
	}
	c.block, c.blockOn, c.blockAt = BlockSyncNear, tgt, c.tc
	c.pendCondI = condI
	return false
}

// execClassical retires one RV32I instruction. Returns false on a runtime
// error (already reported through fail).
func (c *Controller) execClassical(in isa.Instr) bool {
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
		if t%4 != 0 { // RV32I: instruction-address-misaligned
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
		c.setReg(in.Rd, boolToU32(int32(r[in.Rs1]) < in.Imm))
	case isa.OpSLTIU:
		c.setReg(in.Rd, boolToU32(r[in.Rs1] < uint32(in.Imm)))
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
		c.setReg(in.Rd, boolToU32(int32(r[in.Rs1]) < int32(r[in.Rs2])))
	case isa.OpSLTU:
		c.setReg(in.Rd, boolToU32(r[in.Rs1] < r[in.Rs2]))
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

func (c *Controller) branchTaken(in isa.Instr) bool {
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

func (c *Controller) load(in isa.Instr) (uint32, bool) {
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
	if addr < 0 || addr+size > c.Cfg.MemSize {
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

func (c *Controller) store(in isa.Instr) bool {
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
	if addr < 0 || addr+size > c.Cfg.MemSize {
		c.fail("store out of bounds: addr=%d size=%d", addr, size)
		return false
	}
	if n, end := len(c.mem), addr+size; end > n {
		c.mem = slices.Grow(c.mem, end-n)[:end]
		clear(c.mem[n:]) // capacity kept across Reset holds the last shot's bytes
	}
	v := c.regs[in.Rs2]
	for i := 0; i < size; i++ {
		c.mem[addr+i] = byte(v)
		v >>= 8
	}
	return true
}

func boolToU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
