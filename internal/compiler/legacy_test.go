package compiler

import (
	"fmt"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/isa"
)

// compileMonolithic is the pre-pipeline compiler, kept verbatim (in this
// test-only file, so production binaries don't ship it) as the reference
// implementation the pass pipeline is proven against: the equivalence
// tests assert that the default pipeline produces byte-for-byte identical
// programs, tables, bit owners and stats for every workload × topology
// cell. When the pipeline and the monolith ever need to diverge
// intentionally, the monolith is deleted and the golden fixtures take
// over as the sole byte-level anchor.
// legacyStream restores the monolith's inline codeword interning on top
// of monoStream (the pipeline interns in Lower instead, so production
// streams carry no intern map).
type legacyStream struct {
	monoStream
	tableIdx map[chip.TableEntry]int
}

func newStream(id int) *legacyStream {
	return &legacyStream{monoStream: monoStream{id: id}, tableIdx: map[chip.TableEntry]int{}}
}

func (s *legacyStream) cwInstrs(e chip.TableEntry) []isa.Instr {
	idx, ok := s.tableIdx[e]
	if !ok {
		idx = len(s.table)
		s.table = append(s.table, e)
		s.tableIdx[e] = idx
	}
	return monoCWTrigger(idx, uint8(e.Port()))
}

// advance selects the Fig. 6 sync placement (what Schedule "fixed" does);
// false is the in-place padding of Schedule "padded".
func compileMonolithic(c *circuit.Circuit, mapping []int, fab Windows, opt Options, advance bool) (*Compiled, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opt.Controllers <= 0 {
		return nil, fmt.Errorf("compiler: no controllers")
	}
	ctrlOf := func(q int) int {
		if mapping == nil {
			return q
		}
		return mapping[q]
	}
	for q := 0; q < c.NumQubits; q++ {
		if m := ctrlOf(q); m < 0 || m >= opt.Controllers {
			return nil, fmt.Errorf("compiler: qubit %d maps to controller %d of %d", q, m, opt.Controllers)
		}
	}

	streams := make([]*legacyStream, opt.Controllers)
	for i := range streams {
		streams[i] = newStream(i)
	}
	st := Stats{}
	bitOwner := make([]int, c.NumBits)
	bitMeasured := make([]bool, c.NumBits)
	for i := range bitOwner {
		bitOwner[i] = -1
	}

	barrier := func() {
		for _, s := range streams {
			s.insertSyncBack(opt.Root, fab.RegionWindow(s.id, opt.Root), advance)
			st.RegionSyncs++
		}
	}
	if opt.InitialBarrier {
		barrier()
	}

	d := opt.Durations
	for opIdx, op := range c.Ops {
		switch {
		case op.Kind == circuit.Barrier:
			barrier()

		case op.Kind == circuit.Delay:
			streams[ctrlOf(op.Qubits[0])].wait(int64(op.Param))

		case op.Kind == circuit.Measure:
			if op.Cond != nil {
				return nil, fmt.Errorf("compiler: op %d: conditioned measurement unsupported", opIdx)
			}
			q := op.Qubits[0]
			s := streams[ctrlOf(q)]
			entry := chip.TableEntry{Role: chip.RoleMeasure, Kind: circuit.Measure, Qubit: q, Channel: 0}
			s.guard(1)
			s.push(monoUnit{ins: s.cwInstrs(entry), det: true})
			// Fetch the result (pipeline blocks until MeasLatency elapses,
			// which re-anchors the timing point past the window) and store
			// it at the bit's home address.
			s.push(monoUnit{ins: []isa.Instr{{Op: isa.OpFMR, Rd: regScratch, Imm: 0}}})
			s.anchor()
			store := append(isa.LoadImm(regAddr, int32(4*op.CBit)),
				isa.Instr{Op: isa.OpSW, Rs1: regAddr, Rs2: regScratch})
			s.push(monoUnit{ins: store, det: true})
			// Timing point already advanced to the result time by the fmr
			// anchor; nothing further to wait for.
			bitOwner[op.CBit] = s.id
			bitMeasured[op.CBit] = true

		case op.Cond != nil:
			if op.Kind.IsTwoQubit() {
				return nil, fmt.Errorf("compiler: op %d: conditioned two-qubit gate unsupported", opIdx)
			}
			q := op.Qubits[0]
			actor := ctrlOf(q)
			s := streams[actor]
			for _, b := range op.Cond.Bits {
				if !bitMeasured[b] {
					return nil, fmt.Errorf("compiler: op %d uses bit %d before it is measured", opIdx, b)
				}
			}
			// Owners forward remote bits at this consumption site. Send units
			// are slide-stops (det: false): a later sync must never be booked
			// before them, because the simulated pipeline parks at a pending
			// sync and a deferred send can deadlock the consumer whose
			// progress that very sync transitively needs.
			for _, b := range op.Cond.Bits {
				owner := bitOwner[b]
				if owner == actor {
					continue
				}
				os := streams[owner]
				ins := append(isa.LoadImm(regAddr, int32(4*b)),
					isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr},
					isa.Instr{Op: isa.OpSEND, Rs1: regScratch, Imm: int32(actor)})
				os.push(monoUnit{ins: ins})
				st.Sends++
			}
			// Actor gathers, xors, branches, and conditionally commits.
			var ins []isa.Instr
			ins = append(ins, isa.Instr{Op: isa.OpADDI, Rd: regParity}) // r2 = 0
			anchored := false
			for _, b := range op.Cond.Bits {
				if bitOwner[b] == actor {
					ins = append(ins, isa.LoadImm(regAddr, int32(4*b))...)
					ins = append(ins, isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr})
				} else {
					ins = append(ins, isa.Instr{Op: isa.OpRECV, Rd: regScratch, Imm: int32(bitOwner[b])})
					anchored = true
					st.Recvs++
				}
				ins = append(ins, isa.Instr{Op: isa.OpXOR, Rd: regParity, Rs1: regParity, Rs2: regScratch})
			}
			// Branch over the conditional body.
			brOp := isa.OpBEQ // parity==1 required: skip when parity == 0
			if op.Cond.Parity == 0 {
				brOp = isa.OpBNE
			}
			entry := tableEntryFor(op, q)
			// The in-branch guard wait covers every instruction that can
			// retire between the last pipeline anchor and the commit.
			guardAmt := pipeGuard + s.instrSum + int64(len(ins)) + 8
			if anchored {
				guardAmt = pipeGuard + int64(len(ins)) + 8
			}
			body := monoWaitInstrs(guardAmt)
			body = append(body, s.cwInstrs(entry)...)
			body = append(body, monoWaitInstrs(d.Of(op.Kind, op.Param, 0))...)
			ins = append(ins, isa.Instr{Op: brOp, Rs1: regParity, Imm: int32(4 * (len(body) + 1))})
			ins = append(ins, body...)
			s.push(monoUnit{ins: ins})
			if anchored {
				s.anchor()
				// The body retires after the anchor; seed the counters so the
				// next guard still covers it.
				s.instrSum = int64(len(body)) + 4
			}

		case op.Kind.IsTwoQubit():
			a, b := op.Qubits[0], op.Qubits[1]
			ca, cb := ctrlOf(a), ctrlOf(b)
			ctrlEntry := chip.TableEntry{Role: chip.RoleControl, Kind: op.Kind, Param: op.Param, Qubit: a, Partner: b}
			partEntry := chip.TableEntry{Role: chip.RoleParticipant, Kind: op.Kind, Param: op.Param, Qubit: b, Partner: a}
			if ca == cb {
				// Both halves on one node commit at the same timing point.
				s := streams[ca]
				s.guard(2)
				ins := append(s.cwInstrs(ctrlEntry), s.cwInstrs(partEntry)...)
				s.push(monoUnit{ins: ins, det: true})
				s.wait(d.TwoQubit)
				break
			}
			sa, sb := streams[ca], streams[cb]
			n := fab.NearbyWindow(ca, cb)
			// Guards first so the sync window measured backwards from the
			// commit point is identical (= n) on both sides.
			sa.guard(1)
			sb.guard(1)
			sa.insertSyncBack(cb, n, advance)
			sb.insertSyncBack(ca, n, advance)
			st.NearbySyncs += 2
			// The synchronized commit belongs to its sync's window: nothing —
			// in particular no later sync — may be inserted between them, or
			// the parked pipeline would delay the commit past foreign events.
			sa.push(monoUnit{ins: sa.cwInstrs(ctrlEntry), det: true, window: true})
			sb.push(monoUnit{ins: sb.cwInstrs(partEntry), det: true, window: true})
			sa.wait(d.TwoQubit)
			sb.wait(d.TwoQubit)

		default: // unconditioned one-qubit gate
			q := op.Qubits[0]
			s := streams[ctrlOf(q)]
			entry := tableEntryFor(op, q)
			s.guard(1)
			s.push(monoUnit{ins: s.cwInstrs(entry), det: true})
			s.wait(d.Of(op.Kind, op.Param, 0))
		}
	}

	out := &Compiled{
		Programs: make([]*isa.Program, opt.Controllers),
		Tables:   make([][]chip.TableEntry, opt.Controllers),
		BitOwner: bitOwner,
		MemBytes: 4*c.NumBits + 4096,
	}
	for i, s := range streams {
		p := &isa.Program{}
		for _, u := range s.units {
			p.Instrs = append(p.Instrs, u.ins...)
		}
		p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpHALT})
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("compiler: controller %d: %w", i, err)
		}
		out.Programs[i] = p
		out.Tables[i] = s.table
		st.Instructions += p.Len()
		st.TableEntries += len(s.table)
	}
	out.Stats = st
	return out, nil
}

// The scheduled-stream machinery the monolith ran inline, as it stood
// before the pipeline's representation became pointer-free records: every
// unit owns its instructions, and a sync booking is a mid-slice insert.
// Kept verbatim (renamed only) so the oracle above stays the parent's
// algorithm, not a re-statement of the pipeline it checks.

// monoUnit is one atomic chunk of a controller stream. det units may have a
// sync instruction inserted before them by the backward scan; wait units may
// additionally be split.
type monoUnit struct {
	ins    []isa.Instr
	dur    int64 // deterministic timing-point advance contributed by this unit
	det    bool
	wait   bool // pure wait (splittable)
	window bool // inside a sync window [B, B+N): later syncs must not book here
}

// monoStream is one controller's scheduled unit stream. Codeword interning
// happens inline (legacyStream.cwInstrs), into table.
type monoStream struct {
	id       int
	units    []monoUnit
	instrSum int64 // instructions since the last pipeline anchor
	waitSum  int64 // timing-point advance since the last pipeline anchor
	table    []chip.TableEntry
}

func (s *monoStream) push(u monoUnit) {
	s.units = append(s.units, u)
	s.instrSum += int64(len(u.ins))
	if u.det {
		s.waitSum += u.dur
	}
}

// anchor marks a pipeline anchor: a blocking fmr/recv re-synchronized the
// timing point to the pipeline clock, or a commit resumed the pipeline at
// its own commit time — in both cases the pipeline clock equals the timing
// point and the guard accounting restarts.
func (s *monoStream) anchor() {
	s.instrSum = 0
	s.waitSum = 0
}

// monoWaitInstrs renders a timing-point advance of d cycles.
func monoWaitInstrs(d int64) []isa.Instr {
	if d <= 0 {
		return nil
	}
	if d <= 2047 {
		return []isa.Instr{{Op: isa.OpWAITI, Imm: int32(d)}}
	}
	return append(isa.LoadImm(regWait, int32(d)), isa.Instr{Op: isa.OpWAITR, Rs1: regWait})
}

func (s *monoStream) wait(d int64) {
	if d <= 0 {
		return
	}
	s.push(monoUnit{ins: monoWaitInstrs(d), dur: d, det: true, wait: true})
}

// monoCWTrigger renders the codeword trigger for interned table index idx on
// the given port (indices are 1-based on the wire).
func monoCWTrigger(idx int, port uint8) []isa.Instr {
	v := int32(idx + 1)
	if v <= 2047 {
		return []isa.Instr{{Op: isa.OpCWII, Rd: port, Imm: v}}
	}
	return append(isa.LoadImm(regCW, v), isa.Instr{Op: isa.OpCWIR, Rd: port, Rs1: regCW})
}

// guard pads the timing point so the next commit cannot trail the classical
// pipeline (commit time >= pipeline time, no TELF violations). extraInstrs
// accounts for instructions that will execute before the commit.
func (s *monoStream) guard(extraInstrs int64) {
	need := s.instrSum + extraInstrs + pipeGuard - s.waitSum
	if need > 0 {
		s.wait(need)
	}
}

// insertSyncBack places a sync instruction exactly `window` cycles of
// deterministic time before the end of the stream (where the caller is about
// to emit the synchronized commit), sliding backwards over deterministic
// units and splitting waits — the Fig. 6 "advance the sync instruction"
// placement. When less deterministic slack is available (the stream starts,
// a non-deterministic operation, or a previous sync's own window bounds the
// slide), the sync books as early as permitted and the shortfall is padded
// at the gate end — the §4.4 overhead case.
//
// Every unit between the sync and the commit is marked as window territory:
// a later sync must not book inside [B, B+N) of an earlier one, because its
// booking would be transmitted at a pre-pause wall time the controller
// cannot honor (see DESIGN.md §2.3).
func (s *monoStream) insertSyncBack(target int, window int64, advance bool) {
	syncU := monoUnit{ins: []isa.Instr{{Op: isa.OpSYNC, Imm: int32(target)}}, window: true}
	acc := int64(0)
	i := len(s.units)
	for advance && i > 0 && acc < window {
		u := s.units[i-1]
		if !u.det || u.window {
			break
		}
		if u.wait && acc+u.dur > window {
			// Split the wait: [dur-need] stays outside, [need] joins the window.
			need := window - acc
			before := u.dur - need
			s.units[i-1] = monoUnit{ins: monoWaitInstrs(before), dur: before, det: true, wait: true}
			rest := monoUnit{ins: monoWaitInstrs(need), dur: need, det: true, wait: true, window: true}
			s.units = append(s.units, monoUnit{})
			copy(s.units[i+1:], s.units[i:len(s.units)-1])
			s.units[i] = rest
			s.instrSum += int64(len(rest.ins))
			acc = window
			break
		}
		acc += u.dur
		i--
	}
	// Insert the sync at position i and claim everything after it as window.
	s.units = append(s.units, monoUnit{})
	copy(s.units[i+1:], s.units[i:len(s.units)-1])
	s.units[i] = syncU
	s.instrSum += int64(len(syncU.ins))
	for j := i + 1; j < len(s.units); j++ {
		s.units[j].window = true
	}
	if pad := window - acc; pad > 0 {
		// Shortfall: pad at the gate end so earlier commits stay put.
		s.push(monoUnit{ins: monoWaitInstrs(pad), dur: pad, det: true, wait: true, window: true})
	}
}
