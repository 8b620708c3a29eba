// Package chip models the quantum device attached to the control fabric: it
// is the CWSink that receives committed codewords from every HISQ core,
// binds them to gate-level actions through per-controller codeword tables
// (the "waveform tables + configuration" of Fig. 10), applies them to a
// pluggable quantum-state backend, and returns measurement results to the
// owning controller's result FIFO.
//
// The chip is also the referee for the paper's central invariant: the two
// halves of a two-qubit gate must commit on the same cycle (§1.1, "a timing
// error of even a few nanoseconds can lead to the failure of a quantum
// gate"). Misaligned halves are counted and surfaced to tests and
// experiments.
package chip

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/sim"
)

// Role distinguishes the two commits of a two-qubit gate.
type Role uint8

const (
	RoleSingle      Role = iota // complete one-qubit action
	RoleControl                 // two-qubit gate, applying side
	RoleParticipant             // two-qubit gate, passive side
	RoleMeasure                 // measurement window trigger
)

// Port classes: the compiler emits gate triggers on the XY port, two-qubit
// (flux/coupler) triggers on the Z port, and measurement triggers on the
// readout port, mirroring the channel classes of the DQCtrl boards (§6.1).
const (
	PortXY = 0
	PortZ  = 1
	PortRO = 2
)

// TableEntry is one row of a controller's codeword table: what committing
// codeword (index+1) on this controller means.
//
// Sym carries the symbolic parameter name for entries whose Param is a
// bindable rotation angle ("" = concrete). It is part of the entry's
// identity on purpose: the compiler interns table entries by value, and
// two different symbols must never share a row even when their current
// Params coincide — otherwise patching one would corrupt the other, and a
// structural artifact would stop being byte-equivalent to a fresh compile
// of the bound circuit.
type TableEntry struct {
	Role    Role
	Kind    circuit.Kind
	Param   float64
	Qubit   int    // acted qubit (global index)
	Partner int    // other qubit for two-qubit gates
	Channel int    // result FIFO channel for measurements
	Sym     string // symbolic parameter name ("" = concrete Param)
}

// Port returns the port class this entry's trigger must arrive on.
func (e TableEntry) Port() int {
	switch e.Role {
	case RoleMeasure:
		return PortRO
	case RoleControl, RoleParticipant:
		return PortZ
	default:
		return PortXY
	}
}

// Backend is the quantum-state substrate the chip applies gates to.
// Implementations: StateVecBackend (exact, small n), StabilizerBackend
// (Clifford, large n), SeededBackend (no state; reproducible outcomes for
// timing-only studies of non-Clifford circuits).
//
// Reset restores the backend to its post-construction state (|0...0>, RNG
// reseeded with the given seed) without reallocating, so a loaded machine
// can be re-run in place shot after shot.
//
// Apply is the codeword table's one call into the state: kind with its
// parameter on qubit a, or on (a, b) for a two-qubit kind (b is ignored
// otherwise). It returns a measurement's outcome and 0 for every other kind.
type Backend interface {
	Apply(kind circuit.Kind, param float64, a, b int) int
	Reset(seed int64)
}

// ResultDelivery pushes a measurement result back to a controller; the
// machine wires it to Controller.PushResult via an engine event.
type ResultDelivery func(node, channel int, value uint32, at sim.Time)

// Violation records a co-commitment failure between two-qubit gate halves.
type Violation struct {
	QubitA, QubitB int
	TimeA, TimeB   sim.Time
}

// Overlap records an operation committed while its qubit was still busy.
type Overlap struct {
	Qubit     int
	At        sim.Time
	BusyUntil sim.Time
	Kind      circuit.Kind
}

// Model is the chip. It implements core.CWSink.
type Model struct {
	eng     *sim.Engine
	backend Backend
	// tables is indexed by controller node id — dense small ints, so a
	// slice; map hashing here was measurable on the per-commit hot path.
	tables  [][]TableEntry
	deliver ResultDelivery

	// EPRLatency is the duration an inter-chip EPR-pair generation occupies
	// its two communication qubits (attempt + heralding window). Zero falls
	// back to the two-qubit gate duration.
	EPRLatency sim.Time

	// pending holds the first-arrived half of each two-qubit gate, listed
	// under the lower of its two qubits (at most one half per pair), so a
	// commit scans one short list. Indexed by qubit, grown on demand; the
	// lists keep their capacity across Reset, so a warm chip allocates
	// nothing here.
	pending [][]pendingHalf

	// busyUntil tracks per-qubit occupancy to detect scheduler bugs: a
	// commit during another operation's window is an overlap violation.
	// Indexed by qubit, grown on demand; zero means free.
	busyUntil []sim.Time

	Gates        uint64
	Measurements uint64
	// EPRPairs counts inter-chip EPR-pair generations (remote-gate resource
	// consumption; surfaced through machine.Result).
	EPRPairs    uint64
	Violations  []Violation
	Overlaps    int
	OverlapInfo []Overlap
	// OrderInversions counts backend applications whose timestamp precedes
	// an already-applied operation on the same qubit (would corrupt state
	// semantics; always zero for compiler-generated programs).
	OrderInversions int
	lastApplied     []sim.Time
	Errs            []error

	// rec, while non-nil, receives every backend application (tape.go).
	rec *Tape
}

type pendingHalf struct {
	entry TableEntry
	ref   tapeOp // where entry sits in the tables
	at    sim.Time
}

// MeasLatency is the delay in cycles from a measurement trigger's commit
// to its result being available at the controller: the §6.4.1 300 ns
// window (circuit.PaperDurations().Measure, 75 cycles) plus 5 cycles
// (20 ns) of readout discrimination.
const MeasLatency sim.Time = 80

// New builds a chip model bound to the engine. Every commit occupies its
// qubits for the paper's fixed operation times (circuit.PaperDurations).
func New(eng *sim.Engine, backend Backend) *Model {
	return &Model{eng: eng, backend: backend}
}

// SetTable installs the codeword table for one controller.
func (m *Model) SetTable(node int, table []TableEntry) {
	for len(m.tables) <= node {
		m.tables = append(m.tables, nil)
	}
	m.tables[node] = table
}

// Reset restores the chip to its post-construction state — pending
// two-qubit halves, occupancy tracking, counters and error lists clear, and
// the backend is reset with the given seed. Codeword tables, the delivery
// callback and the EPR latency survive, so a reset chip re-runs
// the loaded program with fresh quantum state. A recording in progress is
// abandoned.
func (m *Model) Reset(seed int64) {
	m.backend.Reset(seed)
	for q := range m.pending {
		m.pending[q] = m.pending[q][:0]
	}
	clear(m.busyUntil)
	clear(m.lastApplied)
	m.Gates = 0
	m.Measurements = 0
	m.EPRPairs = 0
	m.Violations = nil
	m.Overlaps = 0
	m.OverlapInfo = nil
	m.OrderInversions = 0
	m.Errs = nil
	m.rec = nil
}

// SetDelivery installs the result-delivery callback.
func (m *Model) SetDelivery(d ResultDelivery) { m.deliver = d }

// Backend exposes the state substrate (tests inspect it after a run).
func (m *Model) Backend() Backend { return m.backend }

func (m *Model) fail(format string, args ...any) {
	m.Errs = append(m.Errs, fmt.Errorf("chip: "+format, args...))
}

// Commit implements core.CWSink: codeword cw committed on (node, port) at
// cycle `at`.
func (m *Model) Commit(node, port int, cw uint32, at sim.Time) {
	if cw == 0 {
		return // codeword 0 is reserved as a no-op marker
	}
	var table []TableEntry
	if node >= 0 && node < len(m.tables) {
		table = m.tables[node]
	}
	idx := int(cw) - 1
	if idx < 0 || idx >= len(table) {
		m.fail("node %d: codeword %d outside table (%d entries)", node, cw, len(table))
		return
	}
	e := table[idx]
	if want := e.Port(); port != want {
		m.fail("node %d: codeword %d arrived on port %d, want %d", node, cw, port, want)
		return
	}
	ref := tapeOp{node: int32(node), idx: int32(idx)}
	if e.Role == RoleControl || e.Role == RoleParticipant {
		m.commit2Q(e, ref, at)
		return
	}
	m.occupyKind(e.Qubit, at, circuit.PaperDurations().Of(e.Kind, e.Param, m.EPRLatency), e.Kind)
	out := m.apply(e, ref)
	if e.Role == RoleSingle {
		m.Gates++
		return
	}
	m.Measurements++
	if m.deliver != nil {
		m.deliver(node, e.Channel, uint32(out), at+MeasLatency)
	}
}

// apply is where a committed entry meets the backend: the live path's one
// call into Backend.Apply, and the recording point of the commit tape.
func (m *Model) apply(e TableEntry, ref tapeOp) int {
	out := m.backend.Apply(e.Kind, e.Param, e.Qubit, e.Partner)
	if m.rec != nil {
		m.rec.record(e, ref, out)
	}
	return out
}

func (m *Model) commit2Q(e TableEntry, ref tapeOp, at sim.Time) {
	lo, hi := min(e.Qubit, e.Partner), max(e.Qubit, e.Partner)
	for len(m.pending) <= lo {
		m.pending = append(m.pending, nil)
	}
	halves := m.pending[lo]
	k := 0
	for k < len(halves) && max(halves[k].entry.Qubit, halves[k].entry.Partner) != hi {
		k++
	}
	if k == len(halves) {
		m.pending[lo] = append(halves, pendingHalf{entry: e, ref: ref, at: at})
		return
	}
	prev := halves[k]
	halves[k] = halves[len(halves)-1]
	m.pending[lo] = halves[:len(halves)-1]
	if prev.at != at {
		m.Violations = append(m.Violations, Violation{
			QubitA: prev.entry.Qubit, QubitB: e.Qubit, TimeA: prev.at, TimeB: at,
		})
	}
	if prev.entry.Role == e.Role {
		m.fail("two-qubit gate on pair (%d,%d) committed two %v halves", e.Qubit, e.Partner, e.Role)
		return
	}
	// The control-role entry carries the gate.
	ctrl := e
	if prev.entry.Role == RoleControl {
		ctrl, ref = prev.entry, prev.ref
	}
	later := at
	if prev.at > later {
		later = prev.at
	}
	// An EPR generation occupies its pair for EPRLatency.
	dur := circuit.PaperDurations().Of(ctrl.Kind, ctrl.Param, m.EPRLatency)
	m.occupyKind(ctrl.Qubit, later, dur, ctrl.Kind)
	m.occupyKind(ctrl.Partner, later, dur, ctrl.Kind)
	m.apply(ctrl, ref)
	if ctrl.Kind == circuit.EPR {
		m.EPRPairs++
	}
	m.Gates++
}

// PendingHalves reports unmatched two-qubit commits (should be zero after a
// complete run).
func (m *Model) PendingHalves() int {
	n := 0
	for _, halves := range m.pending {
		n += len(halves)
	}
	return n
}

func (m *Model) occupyKind(q int, at, dur sim.Time, kind circuit.Kind) {
	for len(m.busyUntil) <= q {
		m.busyUntil = append(m.busyUntil, 0)
		m.lastApplied = append(m.lastApplied, 0)
	}
	if at < m.busyUntil[q] {
		m.Overlaps++
		if len(m.OverlapInfo) < 32 {
			m.OverlapInfo = append(m.OverlapInfo, Overlap{Qubit: q, At: at, BusyUntil: m.busyUntil[q], Kind: kind})
		}
	}
	if at < m.lastApplied[q] {
		m.OrderInversions++
	}
	m.lastApplied[q] = at
	if end := at + dur; end > m.busyUntil[q] {
		m.busyUntil[q] = end
	}
}
