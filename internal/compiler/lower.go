package compiler

import (
	"fmt"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/isa"
)

// The Lower pass translates circuit ops into per-controller directive
// streams. A directive is either a fully-rendered instruction payload
// (codeword triggers are interned here, so table layout is fixed at
// lowering time) or a symbolic scheduling request — guard, anchor, sync
// booking, timed wait — whose cycle arithmetic the Schedule pass resolves.
// The split is exact: Schedule replays each stream's directives through
// the same per-stream accounting the monolithic compiler ran inline, so
// the pipeline's output is byte-identical (legacy_test.go + the equivalence
// tests hold it to that).

type dirKind uint8

const (
	// dUnit appends a pre-rendered unit verbatim.
	dUnit dirKind = iota
	// dWait advances the timing point by amt cycles (no-op when <= 0).
	dWait
	// dGuard pads so the next commit cannot trail the classical pipeline;
	// amt counts the instructions that will retire before the commit.
	dGuard
	// dAnchor restarts the guard accounting at a pipeline anchor.
	dAnchor
	// dSync books a BISP sync against target with the given window,
	// sliding backwards over deterministic work (Fig. 6).
	dSync
	// dCond emits a parity-conditioned commit; the branch body depends on
	// schedule-time guard state, so only its ingredients are recorded.
	dCond
)

type directive struct {
	kind   dirKind
	u      unit  // dUnit
	amt    int64 // dWait advance / dGuard extra instructions
	target int   // dSync target address
	window int64 // dSync calibrated window
	cond   *condSite
}

// condSite carries the schedule-independent parts of a conditioned commit:
// the gather/xor prefix, the branch polarity, the interned codeword
// trigger, the gate-duration wait, and whether a recv anchored the stream.
type condSite struct {
	pre      []isa.Instr
	brOp     isa.Op
	cw       []isa.Instr
	gateWait int64
	anchored bool
}

// lowerStream is one controller's lowering output: its directive stream
// plus the codeword table interned in emission order and the parameter
// slots (table rows holding a symbolic angle) discovered while interning.
type lowerStream struct {
	id       int
	dirs     []directive
	table    []chip.TableEntry
	tableIdx map[chip.TableEntry]int
	slots    []ParamSlot
}

func newLowerStream(id int) *lowerStream {
	return &lowerStream{id: id, tableIdx: map[chip.TableEntry]int{}}
}

// cwInstrs interns a table entry and renders its trigger — the same
// interning the monolithic compiler did on its streams, so indices (and
// therefore instruction bytes) match exactly. A freshly interned symbolic
// entry records a parameter slot: that table row's Param is what
// BindParams patches. Interning keys on (entry, Sym), so two symbols never
// share a row even while their Params coincide.
func (l *lowerStream) cwInstrs(e chip.TableEntry) []isa.Instr {
	idx, ok := l.tableIdx[e]
	if !ok {
		idx = len(l.table)
		l.table = append(l.table, e)
		l.tableIdx[e] = idx
		if e.Sym != "" {
			l.slots = append(l.slots, ParamSlot{Ctrl: l.id, Index: idx, Sym: e.Sym})
		}
	}
	return cwTrigger(idx, uint8(e.Port()))
}

func (l *lowerStream) unit(u unit)  { l.dirs = append(l.dirs, directive{kind: dUnit, u: u}) }
func (l *lowerStream) wait(d int64) { l.dirs = append(l.dirs, directive{kind: dWait, amt: d}) }
func (l *lowerStream) guard(extra int64) {
	l.dirs = append(l.dirs, directive{kind: dGuard, amt: extra})
}
func (l *lowerStream) anchorDir() { l.dirs = append(l.dirs, directive{kind: dAnchor}) }
func (l *lowerStream) sync(tgt int, w int64) {
	l.dirs = append(l.dirs, directive{kind: dSync, target: tgt, window: w})
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

	streams := make([]*lowerStream, opt.Controllers)
	for i := range streams {
		streams[i] = newLowerStream(i)
	}
	st.bitOwner = make([]int, c.NumBits)
	st.bitMeasured = make([]bool, c.NumBits)
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
		for _, s := range streams {
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
			s := streams[ctrlOf(q)]
			entry := chip.TableEntry{Role: chip.RoleMeasure, Kind: circuit.Measure, Qubit: q, Channel: 0}
			s.guard(1)
			s.unit(unit{ins: s.cwInstrs(entry), det: true})
			// Fetch the result (pipeline blocks until MeasLatency elapses,
			// which re-anchors the timing point past the window) and store
			// it at the bit's home address.
			s.unit(unit{ins: []isa.Instr{{Op: isa.OpFMR, Rd: regScratch, Imm: 0}}})
			s.anchorDir()
			store := append(isa.LoadImm(regAddr, int32(4*op.CBit)),
				isa.Instr{Op: isa.OpSW, Rs1: regAddr, Rs2: regScratch})
			s.unit(unit{ins: store, det: true})
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
			s := streams[actor]
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
			// are slide-stops (det: false): a later sync must never be booked
			// before them, because the simulated pipeline parks at a pending
			// sync and a deferred send can deadlock the consumer whose
			// progress that very sync transitively needs.
			for _, b := range op.Cond.Bits {
				owner := st.bitOwner[b]
				if owner == actor {
					continue
				}
				os := streams[owner]
				ins := append(isa.LoadImm(regAddr, int32(4*b)),
					isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr},
					isa.Instr{Op: isa.OpSEND, Rs1: regScratch, Imm: int32(actor)})
				os.unit(unit{ins: ins})
				st.stats.Sends++
			}
			// Actor gathers, xors, branches, and conditionally commits. The
			// guard wait inside the branch body depends on the stream's
			// schedule-time instruction count, so the body is assembled by
			// the Schedule pass from the pieces recorded here.
			var pre []isa.Instr
			pre = append(pre, isa.Instr{Op: isa.OpADDI, Rd: regParity}) // r2 = 0
			anchored := false
			for _, b := range op.Cond.Bits {
				if st.bitOwner[b] == actor {
					pre = append(pre, isa.LoadImm(regAddr, int32(4*b))...)
					pre = append(pre, isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr})
				} else {
					pre = append(pre, isa.Instr{Op: isa.OpRECV, Rd: regScratch, Imm: int32(st.bitOwner[b])})
					anchored = true
					st.stats.Recvs++
				}
				pre = append(pre, isa.Instr{Op: isa.OpXOR, Rd: regParity, Rs1: regParity, Rs2: regScratch})
			}
			// Branch over the conditional body.
			brOp := isa.OpBEQ // parity==1 required: skip when parity == 0
			if op.Cond.Parity == 0 {
				brOp = isa.OpBNE
			}
			entry := tableEntryFor(op, q)
			s.dirs = append(s.dirs, directive{kind: dCond, cond: &condSite{
				pre:      pre,
				brOp:     brOp,
				cw:       s.cwInstrs(entry),
				gateWait: dur,
				anchored: anchored,
			}})

		case op.Kind.IsTwoQubit():
			a, b := op.Qubits[0], op.Qubits[1]
			ca, cb := ctrlOf(a), ctrlOf(b)
			ctrlEntry := chip.TableEntry{Role: chip.RoleControl, Kind: op.Kind, Param: op.Param, Qubit: a, Partner: b, Sym: op.Sym}
			partEntry := chip.TableEntry{Role: chip.RoleParticipant, Kind: op.Kind, Param: op.Param, Qubit: b, Partner: a, Sym: op.Sym}
			if ca == cb {
				// Both halves on one node commit at the same timing point.
				s := streams[ca]
				s.guard(2)
				ins := append(s.cwInstrs(ctrlEntry), s.cwInstrs(partEntry)...)
				s.unit(unit{ins: ins, det: true})
				s.wait(dur)
				break
			}
			sa, sb := streams[ca], streams[cb]
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
			sa.unit(unit{ins: sa.cwInstrs(ctrlEntry), det: true, window: true})
			sb.unit(unit{ins: sb.cwInstrs(partEntry), det: true, window: true})
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
				// slide-stop (det: false, like bit forwarding — a later sync
				// must not be booked before it); the peer's recv blocks and
				// anchors.
				herald := append(isa.LoadImm(regScratch, 1),
					isa.Instr{Op: isa.OpSEND, Rs1: regScratch, Imm: int32(cb)})
				sa.unit(unit{ins: herald})
				st.stats.Sends++
				sb.unit(unit{ins: []isa.Instr{{Op: isa.OpRECV, Rd: regScratch, Imm: int32(ca)}}})
				sb.anchorDir()
				st.stats.Recvs++
			}

		default: // unconditioned one-qubit gate
			q := op.Qubits[0]
			s := streams[ctrlOf(q)]
			entry := tableEntryFor(op, q)
			s.guard(1)
			s.unit(unit{ins: s.cwInstrs(entry), det: true})
			s.wait(dur)
		}
	}

	// Collect parameter slots in controller order: a deterministic slot
	// table is part of the artifact (Assemble packages it).
	for _, s := range streams {
		st.paramSlots = append(st.paramSlots, s.slots...)
	}
	st.lowered = streams
	st.measBits = measBits
	return nil
}
