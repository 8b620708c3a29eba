package compiler

import (
	"fmt"
	"math"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/isa"
	"dhisq/internal/sim"
)

// Lower walks the validated circuit once and writes every controller's
// timed instruction stream as it goes: codeword triggers (interned here, so
// table layout is fixed at lowering time), guard padding so commits never
// trail the classical pipeline, the Fig. 6 backward sync slide
// (insertSyncBack) against the calibrated windows, anchor accounting at
// blocking fmr/recv points, and the branch bodies of conditioned commits.
// No step reads another controller's stream, so each stream sees exactly
// the calls the monolithic compiler made on it (legacy_test.go,
// compile.golden and the equivalence tests hold the bytes to that).
//
// Options.Padded turns the slide off: every sync sits immediately before
// its synchronized instruction with the window fully padded, the
// QubiC-style scheme the paper improves on (§2.1.3) and the "off" side of
// the booking-advance ablation (§4.2).
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

	var tables intern
	streams := make([]stream, opt.Controllers)
	for i := range streams {
		streams[i] = stream{id: int32(i), tables: &tables}
	}
	st.bitOwner = make([]int, c.NumBits)
	st.bitMeasured = make([]bool, c.NumBits)
	durations := circuit.PaperDurations()
	presize(c, ctrlOf, opt, durations, streams, st.bitOwner)
	for i := range st.bitOwner {
		st.bitOwner[i] = -1
	}
	// Static-ness is read off the ops as they are lowered (Compiled.MeasBits):
	// a conditioned op or a second write to one classical bit clears it.
	measBits := make([][]int, opt.Controllers)

	// sync books a BISP sync of s against target. A window past int32 is
	// refused, so no pad or split wait it makes outgrows the 32-bit
	// register a wide wait renders through.
	advance := !opt.Padded
	sync := func(s *stream, target int, w sim.Time) error {
		if int64(int32(w)) != w {
			return fmt.Errorf("compiler: a calibrated sync window exceeds %d cycles", math.MaxInt32)
		}
		s.insertSyncBack(int32(target), w, advance)
		return nil
	}
	barrier := func() error {
		for i := range streams {
			if err := sync(&streams[i], opt.Root, fab.RegionWindow(i, opt.Root)); err != nil {
				return err
			}
			st.stats.RegionSyncs++
		}
		return nil
	}
	if opt.InitialBarrier {
		if err := barrier(); err != nil {
			return err
		}
	}

	for opIdx, op := range c.Ops {
		// The wait that follows op's commit (all there is to a Delay).
		dur := durations.Of(op.Kind, op.Param, opt.EPRLatency)
		switch {
		case op.Kind == circuit.Barrier:
			if err := barrier(); err != nil {
				return err
			}

		case op.Kind == circuit.Delay:
			streams[ctrlOf(op.Qubits[0])].wait(dur, false)

		case op.Kind == circuit.Measure:
			if op.Cond != nil {
				return fmt.Errorf("compiler: op %d: conditioned measurement unsupported", opIdx)
			}
			q := op.Qubits[0]
			s := &streams[ctrlOf(q)]
			s.guard(1)
			at := len(s.ins)
			s.trigger(chip.TableEntry{Role: chip.RoleMeasure, Kind: circuit.Measure, Qubit: q, Channel: 0})
			s.push(at, 0, true, false)
			// Fetch the result (pipeline blocks until chip.MeasLatency elapses,
			// which re-anchors the timing point past the window) and store
			// it at the bit's home address.
			at = len(s.ins)
			s.ins = append(s.ins, isa.Instr{Op: isa.OpFMR, Rd: regScratch, Imm: 0})
			s.push(at, 0, false, false)
			s.anchor()
			at = len(s.ins)
			s.ins = isa.AppendLoadImm(s.ins, regAddr, int32(4*op.CBit))
			s.ins = append(s.ins, isa.Instr{Op: isa.OpSW, Rs1: regAddr, Rs2: regScratch})
			s.push(at, 0, true, false)
			// Timing point already advanced to the result time by the fmr
			// anchor; nothing further to wait for.
			if st.bitMeasured[op.CBit] {
				measBits = nil
			} else if measBits != nil {
				measBits[s.id] = append(measBits[s.id], op.CBit)
			}
			st.bitOwner[op.CBit] = int(s.id)
			st.bitMeasured[op.CBit] = true

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
			// Owners forward remote bits at this consumption site. Send units
			// are slide-stops (not deterministic): a later sync must never be
			// booked before them, because the simulated pipeline parks at a
			// pending sync and a deferred send can deadlock the consumer whose
			// progress that very sync transitively needs.
			for _, b := range op.Cond.Bits {
				owner := st.bitOwner[b]
				if owner == actor {
					continue
				}
				os := &streams[owner]
				at := len(os.ins)
				os.ins = isa.AppendLoadImm(os.ins, regAddr, int32(4*b))
				os.ins = append(os.ins, isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr},
					isa.Instr{Op: isa.OpSEND, Rs1: regScratch, Imm: int32(actor)})
				os.push(at, 0, false, false)
				st.stats.Sends++
			}
			// Actor gathers, xors, branches, and conditionally commits.
			s := &streams[actor]
			at := len(s.ins)
			s.ins = append(s.ins, isa.Instr{Op: isa.OpADDI, Rd: regParity}) // r2 = 0
			anchored := false
			for _, b := range op.Cond.Bits {
				if st.bitOwner[b] == actor {
					s.ins = isa.AppendLoadImm(s.ins, regAddr, int32(4*b))
					s.ins = append(s.ins, isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr})
				} else {
					s.ins = append(s.ins, isa.Instr{Op: isa.OpRECV, Rd: regScratch, Imm: int32(st.bitOwner[b])})
					anchored = true
					st.stats.Recvs++
				}
				s.ins = append(s.ins, isa.Instr{Op: isa.OpXOR, Rd: regParity, Rs1: regParity, Rs2: regScratch})
			}
			s.cond(at, tableEntryFor(op, q), op.Cond.Parity, anchored, dur)

		case op.Kind.IsTwoQubit():
			a, b := op.Qubits[0], op.Qubits[1]
			ca, cb := ctrlOf(a), ctrlOf(b)
			ctrlEntry := chip.TableEntry{Role: chip.RoleControl, Kind: op.Kind, Param: op.Param, Qubit: a, Partner: b, Sym: op.Sym}
			partEntry := chip.TableEntry{Role: chip.RoleParticipant, Kind: op.Kind, Param: op.Param, Qubit: b, Partner: a, Sym: op.Sym}
			if ca == cb {
				// Both halves on one node commit at the same timing point.
				s := &streams[ca]
				s.guard(2)
				at := len(s.ins)
				s.trigger(ctrlEntry)
				s.trigger(partEntry)
				s.push(at, 0, true, false)
				s.wait(dur, false)
				break
			}
			sa, sb := &streams[ca], &streams[cb]
			n := fab.NearbyWindow(ca, cb)
			// Guards first so the sync window measured backwards from the
			// commit point is identical (= n) on both sides.
			sa.guard(1)
			sb.guard(1)
			if err := sync(sa, cb, n); err != nil {
				return err
			}
			if err := sync(sb, ca, n); err != nil {
				return err
			}
			st.stats.NearbySyncs += 2
			// The synchronized commit belongs to its sync's window: nothing —
			// in particular no later sync — may be inserted between them, or
			// the parked pipeline would delay the commit past foreign events.
			at := len(sa.ins)
			sa.trigger(ctrlEntry)
			sa.push(at, 0, true, true)
			at = len(sb.ins)
			sb.trigger(partEntry)
			sb.push(at, 0, true, true)
			sa.wait(dur, false)
			sb.wait(dur, false)
			if op.Kind == circuit.EPR {
				// Inter-chip EPR-pair generation is the two-qubit shape — both
				// comm qubits co-commit at one synchronized point (the pair is
				// one physical event) and stay occupied for the generation
				// latency — plus a herald: delivery is announced with an
				// ordinary fabric message from the generating side to its
				// peer, so EPR traffic shares link serialization and congestion
				// accounting with all other classical traffic. The send is a
				// slide-stop (like bit forwarding — a later sync must not be
				// booked before it); the peer's recv blocks and anchors.
				at = len(sa.ins)
				sa.ins = isa.AppendLoadImm(sa.ins, regScratch, 1)
				sa.ins = append(sa.ins, isa.Instr{Op: isa.OpSEND, Rs1: regScratch, Imm: int32(cb)})
				sa.push(at, 0, false, false)
				st.stats.Sends++
				at = len(sb.ins)
				sb.ins = append(sb.ins, isa.Instr{Op: isa.OpRECV, Rd: regScratch, Imm: int32(ca)})
				sb.push(at, 0, false, false)
				sb.anchor()
				st.stats.Recvs++
			}

		default: // unconditioned one-qubit gate
			q := op.Qubits[0]
			s := &streams[ctrlOf(q)]
			s.guard(1)
			at := len(s.ins)
			s.trigger(tableEntryFor(op, q))
			s.push(at, 0, true, false)
			s.wait(dur, false)
		}
	}

	st.streams = streams
	st.tables, st.paramSlots = collectTables(streams, tables.rows)
	st.measBits = measBits
	return nil
}

// trigger interns e in the stream's codeword table and writes its trigger —
// the same interning the monolithic compiler did on its streams, so indices
// (and therefore instruction bytes) match exactly. Indices are 1-based on
// the wire; one past an I-immediate takes li + cwir.
func (s *stream) trigger(e chip.TableEntry) {
	idx := s.tables.index(s.id, e, int32(s.ntable))
	if int(idx) == s.ntable {
		s.ntable++
	}
	if v, port := idx+1, uint8(e.Port()); v <= 2047 {
		s.ins = append(s.ins, isa.Instr{Op: isa.OpCWII, Rd: port, Imm: v})
	} else {
		s.ins = isa.AppendLoadImm(s.ins, regCW, v)
		s.ins = append(s.ins, isa.Instr{Op: isa.OpCWIR, Rd: port, Rs1: regCW})
	}
}

// cond closes a parity-conditioned commit of e whose gather the stream
// wrote since at: the branch over the body, and the body — guard wait,
// trigger, the gate's own wait. The in-branch guard wait covers every
// instruction that can retire between the last pipeline anchor and the
// commit; a recv inside the gather (anchored) re-anchors the stream,
// shrinking the guard to the local instruction count.
func (s *stream) cond(at int, e chip.TableEntry, parity int, anchored bool, gateWait int64) {
	guardAmt := pipeGuard + int64(len(s.ins)-at) + 8
	if !anchored {
		guardAmt += s.instrSum
	}
	brOp := isa.OpBEQ // parity==1 required: skip when parity == 0
	if parity == 0 {
		brOp = isa.OpBNE
	}
	br := len(s.ins)
	s.ins = append(s.ins, isa.Instr{Op: brOp, Rs1: regParity})
	s.ins = appendWait(s.ins, guardAmt)
	s.trigger(e)
	s.ins = appendWait(s.ins, gateWait)
	body := len(s.ins) - br - 1
	s.ins[br].Imm = int32(4 * (body + 1))
	s.push(at, 0, false, false)
	if anchored {
		s.anchor()
		// The body retires after the anchor; seed the counters so the
		// next guard still covers it.
		s.instrSum = int64(body) + 4
	}
}

// room is presize's count for one stream.
type room struct {
	ins, syncs int
	// run is the deterministic units a sync could slide back over now,
	// recent the most there ever are.
	run, recent int
}

// det counts n units a later sync may slide back over.
func (r *room) det(n int) {
	r.run += n
	r.recent = max(r.recent, r.run)
}

// sync counts a booking and its pad, after which nothing slides.
func (r *room) sync() {
	r.syncs++
	r.ins++
	r.run = 0
}

// presize cuts each stream's arena, booking list and slide buffer from one
// allocation each, counted over the ops alone: the arena gets every
// payload, with the codeword trigger at its usual one instruction, one
// instruction for each guard, sync pad and branch, and each gate wait's
// width; the booking list one booking per sync; the slide buffer the
// longest run of units a sync could slide back over, counting every guard
// as a wait. It is an estimate — a stream that outgrows a cut reallocates
// alone — so it only has to be close; on the cold_compile shapes and
// qft_n300 no stream outgrows one. owner is scratch for the bit owners.
func presize(c *circuit.Circuit, ctrlOf func(int) int, opt Options, d circuit.Durations, streams []stream, owner []int) {
	rooms := make([]room, len(streams))
	if opt.InitialBarrier {
		for i := range rooms {
			rooms[i].sync()
		}
	}
	for _, op := range c.Ops {
		wait := waitLen(d.Of(op.Kind, op.Param, opt.EPRLatency))
		switch {
		case op.Kind == circuit.Barrier:
			for i := range rooms {
				rooms[i].sync()
			}
		case op.Kind == circuit.Delay:
			r := &rooms[ctrlOf(op.Qubits[0])]
			r.ins += wait
			r.det(1)
		case op.Kind == circuit.Measure:
			owner[op.CBit] = ctrlOf(op.Qubits[0])
			r := &rooms[owner[op.CBit]]
			r.ins += 4 + liLen(4*op.CBit) // guard, cw, fmr, li, sw
			r.det(2)
			r.run = 0 // the fmr is a slide-stop
			r.det(1)
		case op.Cond != nil:
			r := &rooms[ctrlOf(op.Qubits[0])]
			r.ins += 4 + wait // parity reset, branch, guard, trigger
			r.run = 0         // the conditioned commit is a slide-stop
			for _, b := range op.Cond.Bits {
				r.ins += 2 // lw or recv, and xor
				if o := &rooms[owner[b]]; o != r {
					o.ins += liLen(4*b) + 2 // the owner's li, lw, send
					o.run = 0
				} else {
					r.ins += liLen(4 * b)
				}
			}
		case op.Kind.IsTwoQubit():
			ra, rb := &rooms[ctrlOf(op.Qubits[0])], &rooms[ctrlOf(op.Qubits[1])]
			if ra == rb {
				ra.ins += 3 + wait // guard, both triggers
				ra.det(3)
				break
			}
			for _, r := range [...]*room{ra, rb} {
				r.ins += 2 + wait // guard, trigger
				r.det(1)
				r.sync()
				r.det(1)
			}
			if op.Kind == circuit.EPR {
				ra.ins, ra.run = ra.ins+2, 0 // the herald: li, send
				rb.ins, rb.run = rb.ins+1, 0 // its recv
			}
		default:
			r := &rooms[ctrlOf(op.Qubits[0])]
			r.ins += 2 + wait // guard, trigger
			r.det(3)
		}
	}
	var total room
	for _, r := range rooms {
		total.ins += r.ins
		total.syncs += r.syncs
		total.recent += r.recent
	}
	ins := make([]isa.Instr, total.ins)
	syncs := make([]booking, total.syncs)
	recent := make([]unit, total.recent)
	for i, r := range rooms {
		s := &streams[i]
		s.ins, ins = ins[:0:r.ins], ins[r.ins:]
		s.syncs, syncs = syncs[:0:r.syncs], syncs[r.syncs:]
		s.recent, recent = recent[:0:r.recent], recent[r.recent:]
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
func collectTables(streams []stream, interned []tableRow) ([][]chip.TableEntry, []ParamSlot) {
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
