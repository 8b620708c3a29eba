package compiler

import (
	"fmt"
	"math"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/isa"
)

// The Lower pass translates circuit ops into per-controller directive
// streams. A directive is one step of one controller, made of parts: fully
// rendered instruction payloads (codeword triggers are interned here, so
// table layout is fixed at lowering time) and symbolic scheduling requests
// — guard, anchor, sync booking, timed wait — whose cycle arithmetic the
// Schedule pass resolves. The split is exact: Schedule replays each
// stream's directives through the same per-stream accounting the monolithic
// compiler ran inline, so the pipeline's output is byte-identical
// (legacy_test.go, compile.golden and the equivalence tests hold it to
// that).
//
// Directives hold no pointer. Every payload is written once, in place, into
// its stream's arena, in directive order, so a directive records only its
// payload's length.

// part is one piece of a directive. Schedule replays a directive's parts in
// this order, and a call joins the stream's last directive only when its
// part comes after every part already there — so the replay makes exactly
// the calls Lower made, in the order Lower made them.
type part uint8

const (
	// pGuard pads so the next commit cannot trail the classical pipeline.
	pGuard part = 1 << iota
	// pSync books a BISP sync against target with the given window,
	// sliding backwards over deterministic work (Fig. 6).
	pSync
	// pUnit appends a pre-rendered payload verbatim.
	pUnit
	// pAnchor restarts the guard accounting at a pipeline anchor.
	pAnchor
	// pWait advances the timing point.
	pWait
	// pCond emits a parity-conditioned commit; the branch body depends on
	// schedule-time guard state, so only its ingredients are recorded. It
	// never shares a directive.
	pCond
)

// Flags of a pUnit or pCond part.
const (
	fDet      uint8 = 1 << iota // pUnit: deterministic, so a sync may slide back over it
	fWindow                     // pUnit: a synchronized commit, inside its sync's window
	fAnchored                   // pCond: a recv in the gather re-anchored the stream
	fBNE                        // pCond: the body runs when parity is 0, not 1
	fWideCW                     // pCond: the trigger is li + cwir, not one cwii
)

type directive struct {
	wait   int64 // pWait: cycles; pCond: the gate's own wait after its commit
	window int32 // pSync: the calibrated window
	n      int32 // pUnit: the payload's length; pCond: the gather prefix's and the trigger's
	target int32 // pSync: the target address
	extra  uint8 // pGuard: instructions that retire before the commit
	parts  part
	flags  uint8
}

// lowerStream is one controller's lowering output: its directives, the
// arena their payloads live in, and the syncs it books (Schedule sizes the
// stream's booking list by them).
type lowerStream struct {
	id     int
	lw     *lowering
	dirs   []directive
	ins    []isa.Instr
	ntable int // codeword-table entries interned so far
	syncs  int
}

// lowering is what the streams of one Lower run share: the codeword-table
// index, and whether a window overflowed its field.
type lowering struct {
	tables   intern
	wideSync bool
}

// step returns the directive that part p joins.
func (l *lowerStream) step(p part) *directive {
	if n := len(l.dirs); n > 0 && p != pCond && l.dirs[n-1].parts < p {
		d := &l.dirs[n-1]
		d.parts |= p
		return d
	}
	l.dirs = append(l.dirs, directive{parts: p})
	return &l.dirs[len(l.dirs)-1]
}

func (l *lowerStream) guard(extra int64) { l.step(pGuard).extra = uint8(extra) }

func (l *lowerStream) sync(tgt int, w int64) {
	d := l.step(pSync)
	d.target, d.window = int32(tgt), int32(w)
	l.lw.wideSync = l.lw.wideSync || int64(d.window) != w
	l.syncs++
}

func (l *lowerStream) anchorDir() { l.step(pAnchor) }

func (l *lowerStream) wait(d int64) {
	if d > 0 {
		l.step(pWait).wait = d
	}
}

// mark is where the stream's next payload starts in its arena.
func (l *lowerStream) mark() int32 { return int32(len(l.ins)) }

// emit writes payload instructions to the arena.
func (l *lowerStream) emit(ins ...isa.Instr) { l.ins = append(l.ins, ins...) }

// loadImm writes rd = v to the arena.
func (l *lowerStream) loadImm(rd uint8, v int32) { l.ins = isa.AppendLoadImm(l.ins, rd, v) }

// unit closes the payload written since lo as one unit.
func (l *lowerStream) unit(lo int32, flags uint8) {
	d := l.step(pUnit)
	d.n, d.flags = l.mark()-lo, flags
}

// cw interns a table entry and writes its trigger — the same interning the
// monolithic compiler did on its streams, so indices (and therefore
// instruction bytes) match exactly. It reports the wide li + cwir form.
func (l *lowerStream) cw(e chip.TableEntry) (wide bool) {
	idx := l.lw.tables.index(int32(l.id), e, int32(l.ntable))
	if int(idx) == l.ntable {
		l.ntable++
	}
	l.ins, wide = appendCW(l.ins, int(idx), uint8(e.Port()))
	return wide
}

// cond records a parity-conditioned commit of e: the gather prefix written
// since lo, then e's trigger. anchored says a recv in the gather blocks.
func (l *lowerStream) cond(lo int32, e chip.TableEntry, cond *circuit.Condition, anchored bool, gateWait int64) {
	var flags uint8
	if l.cw(e) {
		flags |= fWideCW
	}
	if anchored {
		flags |= fAnchored
	}
	if cond.Parity == 0 {
		flags |= fBNE // parity==1 required: skip when parity == 0, by default
	}
	d := l.step(pCond)
	d.n, d.flags, d.wait = l.mark()-lo, flags, gateWait
}

// Lower translates the validated circuit into directive streams.
type Lower struct{}

// Name implements Pass.
func (Lower) Name() string { return "lower" }

// Run implements Pass.
func (Lower) Run(st *State) error {
	c, mapping, fab, opt := st.Circuit, st.Mapping, st.Windows, st.Opt
	if opt.Controllers <= 0 {
		return fmt.Errorf("compiler: no controllers")
	}
	if fab == nil {
		return fmt.Errorf("compiler: no window calibration (nil Windows)")
	}
	ctrlOf := func(q int) int {
		if mapping == nil {
			return q
		}
		return mapping[q]
	}
	for q := 0; q < c.NumQubits; q++ {
		if m := ctrlOf(q); m < 0 || m >= opt.Controllers {
			return fmt.Errorf("compiler: qubit %d maps to controller %d of %d", q, m, opt.Controllers)
		}
	}

	lw := &lowering{}
	streams := make([]lowerStream, opt.Controllers)
	for i := range streams {
		streams[i] = lowerStream{id: i, lw: lw}
	}
	st.bitOwner = make([]int, c.NumBits)
	st.bitMeasured = make([]bool, c.NumBits)
	presize(c, ctrlOf, opt.InitialBarrier, streams, st.bitOwner)
	for i := range st.bitOwner {
		st.bitOwner[i] = -1
	}
	// Static-ness is read off the ops as they are lowered (Compiled.MeasBits):
	// a conditioned op or a second write to one classical bit clears it.
	measBits := make([][]int, opt.Controllers)
	// Collective lowering state: which controllers hold each bit's value at
	// its home address (the owner after a measure, plus every consumer that
	// re-stored it; see collective.go). The distance metric steers
	// nearest-holder selection and relay-chain ordering, so the topology is
	// a hard requirement when the option is on.
	var holders map[int][]int
	var dist func(int, int) int
	if opt.Collective {
		if st.Topo == nil {
			return fmt.Errorf("compiler: Options.Collective needs the fabric topology (compile via machine, not the Windows-only entry points)")
		}
		holders = map[int][]int{}
		dist = topoDistance(st.Topo)
	}

	barrier := func() {
		for i := range streams {
			s := &streams[i]
			s.sync(opt.Root, int64(fab.RegionWindow(s.id, opt.Root)))
			st.stats.RegionSyncs++
		}
	}
	if opt.InitialBarrier {
		barrier()
	}

	for opIdx, op := range c.Ops {
		// The wait that follows op's commit (all there is to a Delay).
		dur := opt.Durations.Of(op.Kind, op.Param, opt.EPRLatency)
		switch {
		case op.Kind == circuit.Barrier:
			barrier()

		case op.Kind == circuit.Delay:
			streams[ctrlOf(op.Qubits[0])].wait(dur)

		case op.Kind == circuit.Measure:
			if op.Cond != nil {
				return fmt.Errorf("compiler: op %d: conditioned measurement unsupported", opIdx)
			}
			q := op.Qubits[0]
			s := &streams[ctrlOf(q)]
			entry := chip.TableEntry{Role: chip.RoleMeasure, Kind: circuit.Measure, Qubit: q, Channel: 0}
			s.guard(1)
			lo := s.mark()
			s.cw(entry)
			s.unit(lo, fDet)
			// Fetch the result (pipeline blocks until MeasLatency elapses,
			// which re-anchors the timing point past the window) and store
			// it at the bit's home address.
			lo = s.mark()
			s.emit(isa.Instr{Op: isa.OpFMR, Rd: regScratch, Imm: 0})
			s.unit(lo, 0)
			s.anchorDir()
			lo = s.mark()
			s.loadImm(regAddr, int32(4*op.CBit))
			s.emit(isa.Instr{Op: isa.OpSW, Rs1: regAddr, Rs2: regScratch})
			s.unit(lo, fDet)
			// Timing point already advanced to the result time by the fmr
			// anchor; nothing further to wait for.
			if st.bitMeasured[op.CBit] {
				measBits = nil
			} else if measBits != nil {
				measBits[s.id] = append(measBits[s.id], op.CBit)
			}
			st.bitOwner[op.CBit] = s.id
			st.bitMeasured[op.CBit] = true
			if holders != nil {
				// A re-measure invalidates every stale copy: the owner is
				// the only holder again.
				holders[op.CBit] = []int{s.id}
			}

		case op.Cond != nil:
			if op.Kind.IsTwoQubit() {
				return fmt.Errorf("compiler: op %d: conditioned two-qubit gate unsupported", opIdx)
			}
			measBits = nil
			q := op.Qubits[0]
			actor := ctrlOf(q)
			for _, b := range op.Cond.Bits {
				if !st.bitMeasured[b] {
					return fmt.Errorf("compiler: op %d uses bit %d before it is measured", opIdx, b)
				}
			}
			if holders != nil {
				st.lowerCondCollective(streams, op, actor, q, holders, dist)
				break
			}
			// Owners forward remote bits at this consumption site. Send units
			// are slide-stops (not fDet): a later sync must never be booked
			// before them, because the simulated pipeline parks at a pending
			// sync and a deferred send can deadlock the consumer whose
			// progress that very sync transitively needs.
			for _, b := range op.Cond.Bits {
				owner := st.bitOwner[b]
				if owner == actor {
					continue
				}
				os := &streams[owner]
				lo := os.mark()
				os.loadImm(regAddr, int32(4*b))
				os.emit(isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr},
					isa.Instr{Op: isa.OpSEND, Rs1: regScratch, Imm: int32(actor)})
				os.unit(lo, 0)
				st.stats.Sends++
			}
			// Actor gathers, xors, branches, and conditionally commits. The
			// guard wait inside the branch body depends on the stream's
			// schedule-time instruction count, so the body is assembled by
			// the Schedule pass from the pieces recorded here.
			s := &streams[actor]
			lo := s.mark()
			s.emit(isa.Instr{Op: isa.OpADDI, Rd: regParity}) // r2 = 0
			anchored := false
			for _, b := range op.Cond.Bits {
				if st.bitOwner[b] == actor {
					s.loadImm(regAddr, int32(4*b))
					s.emit(isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr})
				} else {
					s.emit(isa.Instr{Op: isa.OpRECV, Rd: regScratch, Imm: int32(st.bitOwner[b])})
					anchored = true
					st.stats.Recvs++
				}
				s.emit(isa.Instr{Op: isa.OpXOR, Rd: regParity, Rs1: regParity, Rs2: regScratch})
			}
			s.cond(lo, tableEntryFor(op, q), op.Cond, anchored, dur)

		case op.Kind.IsTwoQubit():
			a, b := op.Qubits[0], op.Qubits[1]
			ca, cb := ctrlOf(a), ctrlOf(b)
			ctrlEntry := chip.TableEntry{Role: chip.RoleControl, Kind: op.Kind, Param: op.Param, Qubit: a, Partner: b, Sym: op.Sym}
			partEntry := chip.TableEntry{Role: chip.RoleParticipant, Kind: op.Kind, Param: op.Param, Qubit: b, Partner: a, Sym: op.Sym}
			if ca == cb {
				// Both halves on one node commit at the same timing point.
				s := &streams[ca]
				s.guard(2)
				lo := s.mark()
				s.cw(ctrlEntry)
				s.cw(partEntry)
				s.unit(lo, fDet)
				s.wait(dur)
				break
			}
			sa, sb := &streams[ca], &streams[cb]
			n := int64(fab.NearbyWindow(ca, cb))
			// Guards first so the sync window measured backwards from the
			// commit point is identical (= n) on both sides.
			sa.guard(1)
			sb.guard(1)
			sa.sync(cb, n)
			sb.sync(ca, n)
			st.stats.NearbySyncs += 2
			// The synchronized commit belongs to its sync's window: nothing —
			// in particular no later sync — may be inserted between them, or
			// the parked pipeline would delay the commit past foreign events.
			lo := sa.mark()
			sa.cw(ctrlEntry)
			sa.unit(lo, fDet|fWindow)
			lo = sb.mark()
			sb.cw(partEntry)
			sb.unit(lo, fDet|fWindow)
			sa.wait(dur)
			sb.wait(dur)
			if op.Kind == circuit.EPR {
				// Inter-chip EPR-pair generation is the two-qubit shape — both
				// comm qubits co-commit at one synchronized point (the pair is
				// one physical event) and stay occupied for the generation
				// latency — plus a herald: delivery is announced with an
				// ordinary fabric message from the generating side to its
				// peer, so EPR traffic shares link serialization and congestion
				// accounting with all other classical traffic. The send is a
				// slide-stop (not fDet, like bit forwarding — a later sync
				// must not be booked before it); the peer's recv blocks and
				// anchors.
				lo = sa.mark()
				sa.loadImm(regScratch, 1)
				sa.emit(isa.Instr{Op: isa.OpSEND, Rs1: regScratch, Imm: int32(cb)})
				sa.unit(lo, 0)
				st.stats.Sends++
				lo = sb.mark()
				sb.emit(isa.Instr{Op: isa.OpRECV, Rd: regScratch, Imm: int32(ca)})
				sb.unit(lo, 0)
				sb.anchorDir()
				st.stats.Recvs++
			}

		default: // unconditioned one-qubit gate
			q := op.Qubits[0]
			s := &streams[ctrlOf(q)]
			s.guard(1)
			lo := s.mark()
			s.cw(tableEntryFor(op, q))
			s.unit(lo, fDet)
			s.wait(dur)
		}
	}

	if lw.wideSync {
		return fmt.Errorf("compiler: a calibrated sync window exceeds %d cycles", math.MaxInt32)
	}
	st.lowered = streams
	st.tables, st.paramSlots = collectTables(streams, lw.tables.rows)
	st.measBits = measBits
	return nil
}

// presize gives each stream's directive list and arena the room the ops
// will take, counted over the ops alone: one directive per barrier and per
// op a controller takes part in (three for a measure, one more for an EPR
// herald, one per bit an owner forwards), and each payload's width with
// the codeword trigger at its usual one instruction. It is an estimate —
// a stream that outgrows it reallocates — so it only has to be close; on
// the cold_compile shapes and qft_n300 it is exact. owner is scratch for
// the bit owners.
func presize(c *circuit.Circuit, ctrlOf func(int) int, barrier bool, streams []lowerStream, owner []int) {
	type room struct{ dirs, ins int }
	rooms := make([]room, len(streams))
	if barrier {
		for i := range rooms {
			rooms[i].dirs = 1
		}
	}
	for _, op := range c.Ops {
		switch {
		case op.Kind == circuit.Barrier:
			for i := range rooms {
				rooms[i].dirs++
			}
		case op.Kind == circuit.Delay:
			rooms[ctrlOf(op.Qubits[0])].dirs++
		case op.Kind == circuit.Measure:
			owner[op.CBit] = ctrlOf(op.Qubits[0])
			r := &rooms[owner[op.CBit]]
			r.dirs += 3
			r.ins += 3 + liLen(4*op.CBit) // cw, fmr, li, sw
		case op.Cond != nil:
			r := &rooms[ctrlOf(op.Qubits[0])]
			r.dirs++
			r.ins += 2 // the parity reset and the trigger
			for _, b := range op.Cond.Bits {
				r.ins += 2 // lw or recv, and xor
				if o := &rooms[owner[b]]; o != r {
					o.dirs++
					o.ins += liLen(4*b) + 2 // the owner's li, lw, send
				} else {
					r.ins += liLen(4 * b)
				}
			}
		case op.Kind.IsTwoQubit():
			ra, rb := &rooms[ctrlOf(op.Qubits[0])], &rooms[ctrlOf(op.Qubits[1])]
			ra.dirs++
			ra.ins++ // the control half's trigger
			rb.ins++ // the participant's, in the same payload when ra == rb
			if ra != rb {
				rb.dirs++
				if op.Kind == circuit.EPR {
					ra.dirs, ra.ins = ra.dirs+1, ra.ins+2 // the herald: li, send
					rb.dirs, rb.ins = rb.dirs+1, rb.ins+1 // its recv
				}
			}
		default:
			r := &rooms[ctrlOf(op.Qubits[0])]
			r.dirs++
			r.ins++
		}
	}
	var total room
	for _, r := range rooms {
		total.dirs += r.dirs
		total.ins += r.ins
	}
	dirs := make([]directive, total.dirs)
	ins := make([]isa.Instr, total.ins)
	for i, r := range rooms {
		streams[i].dirs, dirs = dirs[:0:r.dirs], dirs[r.dirs:]
		streams[i].ins, ins = ins[:0:r.ins], ins[r.ins:]
	}
}

// liLen is len(isa.LoadImm(rd, v)).
func liLen(v int) int {
	if v >= -2048 && v <= 2047 {
		return 1
	}
	return 2
}

// intern indexes the compile's codeword-table entries by (controller,
// entry), open-addressed over the rows in interning order. Entries compare
// with ==, so a lookup finds exactly what a map keyed by them would.
type intern struct {
	slots []int32 // 1 + an index into rows; 0 is empty
	rows  []tableRow
}

// tableRow is one interned entry: row idx of controller ctrl's table.
// Interning keys on (entry, Sym), so two symbols never share a row even
// while their Params coincide.
type tableRow struct {
	ctrl, idx int32
	e         chip.TableEntry
}

// index returns e's row in controller ctrl's table, interning it as row
// next when it is new.
func (t *intern) index(ctrl int32, e chip.TableEntry, next int32) int32 {
	if 2*(len(t.rows)+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int(hashEntry(ctrl, e)) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.rows = append(t.rows, tableRow{ctrl: ctrl, idx: next, e: e})
			t.slots[i] = int32(len(t.rows))
			return next
		}
		if r := &t.rows[s-1]; r.ctrl == ctrl && r.e == e {
			return r.idx
		}
	}
}

// grow doubles the slot array and re-indexes every row.
func (t *intern) grow() {
	t.slots = make([]int32, max(64, 2*len(t.slots)))
	mask := len(t.slots) - 1
	for j := range t.rows {
		i := int(hashEntry(t.rows[j].ctrl, t.rows[j].e)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(j + 1)
	}
}

// hashEntry mixes every field == compares. Param hashes -0 as +0, because
// == holds them equal.
func hashEntry(ctrl int32, e chip.TableEntry) uint64 {
	p := e.Param
	if p == 0 {
		p = 0
	}
	h := uint64(ctrl)<<16 ^ uint64(e.Role)<<8 ^ uint64(e.Kind)
	for _, v := range [...]uint64{math.Float64bits(p), uint64(e.Qubit), uint64(e.Partner), uint64(e.Channel)} {
		h = (h ^ v) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	for i := 0; i < len(e.Sym); i++ {
		h = (h ^ uint64(e.Sym[i])) * 0x100000001b3
	}
	return h ^ h>>29
}

// collectTables lays the interned entries out as one codeword table per
// controller, in one backing array, and records a parameter slot for every
// row holding a symbolic angle, in controller order: that row's Param is
// what BindParams patches. A controller that interned nothing keeps a nil
// table.
func collectTables(streams []lowerStream, interned []tableRow) ([][]chip.TableEntry, []ParamSlot) {
	tables := make([][]chip.TableEntry, len(streams))
	rows := make([]chip.TableEntry, len(interned))
	for i := range streams {
		if n := streams[i].ntable; n > 0 {
			tables[i], rows = rows[:n:n], rows[n:]
		}
	}
	for _, r := range interned {
		tables[r.ctrl][r.idx] = r.e
	}
	var slots []ParamSlot
	for ctrl, tbl := range tables {
		for idx, e := range tbl {
			if e.Sym != "" {
				slots = append(slots, ParamSlot{Ctrl: ctrl, Index: idx, Sym: e.Sym})
			}
		}
	}
	return tables, slots
}
