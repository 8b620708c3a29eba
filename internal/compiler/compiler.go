// Package compiler is the backend of the quantum software stack (Fig. 10):
// it lowers a dynamic circuit (internal/circuit) into one HISQ binary per
// controller plus the codeword tables the chip model binds them with.
//
// Compilation is an explicit pass pipeline (see pipeline.go):
//
//	Place    — resolve the qubit→controller mapping via a pluggable
//	           placement policy (internal/placement) when the caller did
//	           not fix one;
//	Lower    — walk the circuit ops once, writing each controller's timed
//	           instruction stream: the payloads (codeword triggers,
//	           fmr/store, send/recv/xor sequences), pipeline-guard padding,
//	           anchor accounting, and the BISP sync-back/advance-booking
//	           placement against calibrated fabric windows;
//	Assemble — merge each stream's sync bookings into it, writing validated
//	           HISQ programs, and collect the codeword tables.
//
// The lowering follows the Distributed-HISQ execution model:
//
//   - each controller gets its own instruction stream and runs at its own
//     pace (§7.2); there is no global schedule;
//   - two-qubit gates between controllers are aligned with nearby BISP sync:
//     the sync instruction is placed exactly N cycles of deterministic work
//     before the gate's commit point, sliding backwards over already-emitted
//     deterministic operations ("advancing the sync instruction", Fig. 6),
//     and padding when the available deterministic window is shorter than N
//     (the §4.4 overhead case);
//   - barriers become region-level syncs against the root router;
//   - measurement results are fetched with fmr, stored to data memory, and
//     forwarded with send/recv at each consumption site; parity conditions
//     compile to xor chains and a branch (the "XOR" boxes of Fig. 14).
package compiler

import (
	"fmt"
	"math"
	"sort"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/isa"
	"dhisq/internal/sim"
)

// Windows supplies the calibrated BISP windows. *network.Topology implements
// it (the windows are pure functions of the topology), and *network.Fabric
// by delegating to its topology.
type Windows interface {
	NearbyWindow(src, dst int) sim.Time
	RegionWindow(src, router int) sim.Time
}

// Options parameterizes compilation. Operation times are the paper's
// fixed §6.4.1 durations (circuit.PaperDurations), not an option.
type Options struct {
	Root        int // root router address for region sync
	Controllers int // total controllers (mesh size); all join barriers
	// InitialBarrier emits a program-start region sync, the per-repetition
	// global synchronization of §2.1.4.
	InitialBarrier bool
	// Placement names the placement policy the Place pass applies when no
	// explicit mapping is given ("" = "identity", the legacy behavior).
	// Part of the artifact fingerprint: two policies never share a cache
	// entry even when they happen to compute the same mapping.
	Placement string
	// Padded makes Lower pad every sync in place instead of booking it in
	// advance: the §2.1.3 side of the booking-advance ablation. The zero
	// value is the Fig. 6 advance. Part of the artifact fingerprint.
	Padded bool
	// Chips splits the data qubits across this many chips (0 or 1 = the
	// single-chip legacy model, byte-identical to before the multi-chip
	// refactor). The Place pass partitions qubits across chips, appends one
	// communication qubit per chip, and rewrites cross-chip two-qubit gates
	// into EPR-mediated teleported constructions (DESIGN.md §12). Part of
	// the artifact fingerprint (keyVersion 7).
	Chips int
	// EPRLatency is the cycle cost of one inter-chip EPR-pair generation
	// (0 falls back to the two-qubit gate duration). Part of the artifact
	// fingerprint.
	EPRLatency sim.Time
}

// DefaultOptions is the start-barrier compile for a mesh of controllers
// with its root router at root.
func DefaultOptions(root, controllers int) Options {
	return Options{Root: root, Controllers: controllers, InitialBarrier: true}
}

// pipeGuard is the margin (cycles) added when padding the timing point past
// the classical pipeline to guarantee violation-free commits.
const pipeGuard = 6

// ParamSlot locates one bindable angle inside a compiled artifact: the
// codeword-table row (Ctrl, Index) whose Param holds the value of symbolic
// parameter Sym. The Lower pass records one slot per interned symbolic
// entry, so BindParams can patch a copied artifact without re-running any
// pass — rotation angles never appear in instruction bytes, guards or sync
// arithmetic (the bind contract, DESIGN.md §8).
type ParamSlot struct {
	Ctrl  int    // controller whose table holds the slot
	Index int    // row index within that controller's table
	Sym   string // symbolic parameter name
}

// Compiled is the result: one program and codeword table per controller.
type Compiled struct {
	Programs []*isa.Program
	Tables   [][]chip.TableEntry
	// BitOwner maps each classical bit to the controller that measures it;
	// the bit's value is stored at data-memory address 4*bit on that node.
	BitOwner []int
	MemBytes int
	Stats    Stats
	// Mapping is the qubit→controller mapping this artifact was compiled
	// with, after placement resolution (nil = identity). Job APIs echo it
	// so remote users can see where the Place pass put their qubits.
	Mapping []int
	// ParamSlots locates every bindable angle (empty for fully concrete
	// circuits). Slots survive binding, so a bound artifact can be re-bound.
	ParamSlots []ParamSlot
	// PublicBits is the classical-bit count of the pre-expansion circuit
	// when the multi-chip expansion appended teleport-correction bits after
	// it (0 = every bit is public). Result readers truncate to this, so a
	// k-chip histogram is directly comparable to the single-chip run.
	PublicBits int
	// MeasBits is non-nil exactly when the lowered program is static: the
	// circuit Lower was handed — after the multi-chip expansion, which adds
	// teleport feed-forward the submitted circuit does not show — has no
	// conditioned op and writes no classical bit twice. Control flow and
	// timing then cannot depend on a measurement outcome, which is what
	// lets a machine record one shot's commits and replay them (the commit
	// tape, DESIGN.md §9). MeasBits[n][k] is the classical bit controller
	// n's k-th measurement commit writes; one controller's commits happen
	// in program order.
	MeasBits [][]int
}

// Static reports whether the lowered program's control flow is
// outcome-independent (see MeasBits).
func (c *Compiled) Static() bool { return c.MeasBits != nil }

// Params returns the sorted set of symbolic parameter names the artifact's
// slots reference (nil when the circuit was fully concrete).
func (c *Compiled) Params() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range c.ParamSlots {
		if !seen[s.Sym] {
			seen[s.Sym] = true
			out = append(out, s.Sym)
		}
	}
	sort.Strings(out)
	return out
}

// BindParams returns a copy of the artifact with every parameter slot
// patched to its value from vals: programs, bit owners, mapping and stats
// are shared (they cannot depend on rotation angles), and only the
// codeword tables containing slots are copied. Every slot symbol must be
// supplied, every supplied name must name a slot, and values must not be
// NaN; ±0 is canonicalized exactly as circuit.Bind does, so the result is
// byte-for-byte identical to a fresh full compile of the pre-bound
// circuit (the equivalence the compiler tests prove). The receiver — which
// may be the cached, shared structural artifact — is never mutated.
func (c *Compiled) BindParams(vals map[string]float64) (*Compiled, error) {
	need := map[string]bool{}
	for _, s := range c.ParamSlots {
		need[s.Sym] = true
	}
	for name, v := range vals {
		if !need[name] {
			return nil, fmt.Errorf("compiler: bind: unknown parameter %q", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("compiler: bind: parameter %q is %v (angles must be finite)", name, v)
		}
	}
	for name := range need {
		if _, ok := vals[name]; !ok {
			return nil, fmt.Errorf("compiler: bind: parameter %q left unbound", name)
		}
	}
	out := *c
	out.Tables = append([][]chip.TableEntry(nil), c.Tables...)
	copied := map[int]bool{}
	for _, s := range c.ParamSlots {
		if !copied[s.Ctrl] {
			out.Tables[s.Ctrl] = append([]chip.TableEntry(nil), c.Tables[s.Ctrl]...)
			copied[s.Ctrl] = true
		}
		out.Tables[s.Ctrl][s.Index].Param = circuit.CanonParam(vals[s.Sym])
	}
	return &out, nil
}

// Stats summarizes the lowering.
type Stats struct {
	Instructions int
	NearbySyncs  int
	RegionSyncs  int
	Sends        int
	Recvs        int
	TableEntries int
	// RemoteGates counts the two-qubit gates the chip expansion teleported
	// across chips (0 for single-chip compiles).
	RemoteGates int
}

// Register conventions of generated code.
const (
	regScratch = 1 // fmr/recv/lw destination
	regParity  = 2 // xor accumulator
	regAddr    = 5 // memory addressing
	regCW      = 6 // wide codewords
	regWait    = 7 // wide waits
)

// stream is one controller's timed instruction stream. Lower appends every
// instruction but the sync bookings to ins, the stream's arena, in program
// order; a booking is a record of where its sync goes, and Assemble merges
// the bookings in while it copies the arena out, in one pass sized by size.
type stream struct {
	id     int32   // the controller
	tables *intern // the compile's codeword-table index
	ntable int     // codeword-table entries interned so far
	ins    []isa.Instr
	syncs  []booking // in program order
	// recent holds the units a sync may still slide back over: the
	// deterministic units since the last slide-stop (a non-deterministic
	// unit, a synchronized commit, or a sync's own window).
	recent   []unit
	instrSum int64 // instructions since the last pipeline anchor
	waitSum  int64 // timing-point advance since the last pipeline anchor
	size     int   // program length, bookings included, halt excluded
}

// unit is one atomic chunk of a stream that a sync may slide back over: it
// starts at ins[at] and runs to the next unit (or the end of the arena). A
// unit with dur > 0 is a pure wait, which a sync may split.
type unit struct {
	at  int32
	dur int64 // deterministic timing-point advance contributed by this unit
}

// booking places one sync instruction: ins[at:end] — empty, or the one wait
// the sync splits — is replaced by a wait of before cycles, the sync, and a
// wait of after cycles (a wait of 0 cycles is no instruction).
type booking struct {
	at, end       int32
	target        int32
	before, after int64
}

// push accounts for the unit just appended at ins[at:]. A unit a later sync
// must not slide back over — non-deterministic, or inside a sync window —
// forgets every unit before it.
func (s *stream) push(at int, dur int64, det, window bool) {
	n := len(s.ins) - at
	s.instrSum += int64(n)
	s.size += n
	if det {
		s.waitSum += dur
	}
	if det && !window {
		s.recent = append(s.recent, unit{at: int32(at), dur: dur})
	} else {
		s.recent = s.recent[:0]
	}
}

// anchor marks a pipeline anchor: a blocking fmr/recv re-synchronized the
// timing point to the pipeline clock, or a commit resumed the pipeline at
// its own commit time — in both cases the pipeline clock equals the timing
// point and the guard accounting restarts.
func (s *stream) anchor() {
	s.instrSum = 0
	s.waitSum = 0
}

// appendWait renders a timing-point advance of d cycles onto dst.
func appendWait(dst []isa.Instr, d int64) []isa.Instr {
	if d <= 0 {
		return dst
	}
	if d <= 2047 {
		return append(dst, isa.Instr{Op: isa.OpWAITI, Imm: int32(d)})
	}
	dst = isa.AppendLoadImm(dst, regWait, int32(d))
	return append(dst, isa.Instr{Op: isa.OpWAITR, Rs1: regWait})
}

// waitLen is the number of instructions appendWait renders for d: a wide
// wait is lui + addi + waitr.
func waitLen(d int64) int {
	switch {
	case d <= 0:
		return 0
	case d <= 2047:
		return 1
	}
	return 3
}

// wait appends a timing-point advance of d cycles; window marks it as part
// of a sync window.
func (s *stream) wait(d int64, window bool) {
	if d <= 0 {
		return
	}
	at := len(s.ins)
	s.ins = appendWait(s.ins, d)
	s.push(at, d, true, window)
}

// guard pads the timing point so the next commit cannot trail the classical
// pipeline (commit time >= pipeline time, no TELF violations). extraInstrs
// accounts for instructions that will execute before the commit.
func (s *stream) guard(extraInstrs int64) {
	need := s.instrSum + extraInstrs + pipeGuard - s.waitSum
	if need > 0 {
		s.wait(need, false)
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
// Everything between the sync and the commit is window territory: a later
// sync must not book inside [B, B+N) of an earlier one, because its booking
// would be transmitted at a pre-pause wall time the controller cannot honor
// (see DESIGN.md §2.3). So the slide forgets every unit it passed.
//
// The sync is not inserted into the arena: the booking records where it
// goes, and Assemble merges it in. A slide costs the units it passes, never
// the stream's length.
func (s *stream) insertSyncBack(target int32, window int64, advance bool) {
	b := booking{at: int32(len(s.ins)), end: int32(len(s.ins)), target: target}
	acc := int64(0)
	for i := len(s.recent); advance && i > 0 && acc < window; i-- {
		u := s.recent[i-1]
		if u.dur > 0 && acc+u.dur > window {
			// Split the wait: [dur-need] stays outside, [need] joins the
			// window. b.end is already where the wait ends.
			b.after = window - acc
			b.before = u.dur - b.after
			b.at = u.at
			s.instrSum += int64(waitLen(b.after))
			acc = window
			break
		}
		acc += u.dur
		b.at, b.end = u.at, u.at
	}
	s.syncs = append(s.syncs, b)
	s.instrSum++
	s.size += waitLen(b.before) + 1 + waitLen(b.after) - int(b.end-b.at)
	s.recent = s.recent[:0]
	if pad := window - acc; pad > 0 {
		// Shortfall: pad at the gate end so earlier commits stay put.
		s.wait(pad, true)
	}
}

// Compile lowers the circuit through the standard pass pipeline.
// mapping[q] gives the controller of qubit q (nil = identity, or, when
// opt.Placement names a non-identity policy, "let the Place pass decide" —
// which requires the State-based entry point since placement needs the
// topology; this convenience wrapper has none and rejects such options).
// fab supplies BISP windows.
func Compile(c *circuit.Circuit, mapping []int, fab Windows, opt Options) (*Compiled, error) {
	return NewPipeline().Run(&State{Circuit: c, Mapping: mapping, Windows: fab, Opt: opt})
}

func tableEntryFor(op circuit.Op, q int) chip.TableEntry {
	return chip.TableEntry{Role: chip.RoleSingle, Kind: op.Kind, Param: op.Param, Qubit: q, Sym: op.Sym}
}
