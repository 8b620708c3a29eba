package chip

import (
	"dhisq/internal/circuit"
	"dhisq/internal/stabilizer"
)

// The commit tape. When a program's control flow cannot depend on a
// measurement outcome (compiler.Compiled.Static), every shot commits the
// same codewords at the same cycles in the same order: the event engine,
// the controllers and the fabric compute, shot after shot, something only
// the program decides. What a shot does decide is what the backend returns
// for each measurement. So one fully simulated shot records the backend
// applications in the order Commit made them, and every later shot is
// backend.Reset(seed) plus that sequence again — nothing above the backend
// runs. The timing referee's verdict (violations, overlaps, makespan) is
// part of the recorded shot's machine.Result, which machine copies.

// tapeOp names the table row whose entry was applied. The entry is read
// again at replay, so a BindParams patch — new tables, same programs —
// replays with its own angles.
type tapeOp struct {
	node, idx int32
}

// Tape is one recorded shot, replayable on the Model that recorded it while
// the tables it indexes keep their shape.
type Tape struct {
	ops []tapeOp
	// cbits holds, per measurement op in tape order, the classical bit it
	// writes; outs the recording shot's outcomes, then replay scratch.
	cbits []int
	outs  []int

	// The affine outcome map of a tape the stabilizer backend can hoist
	// (buildAffine), built on the first replay — a program that runs one
	// shot never pays for it. tried marks the attempt.
	affine *stabilizer.Affine
	tried  bool
}

func (t *Tape) record(e TableEntry, ref tapeOp, out int) {
	t.ops = append(t.ops, ref)
	if e.Role == RoleMeasure {
		t.outs = append(t.outs, out)
	}
}

// BeginTape starts recording the shot about to run (call after Reset).
func (m *Model) BeginTape() { m.rec = &Tape{} }

// EndTape stops recording and returns the tape, or nil when the recorded
// shot does not check out: controller n must have committed exactly the
// measurements measBits[n] lists (compiler.Compiled.MeasBits), and the
// bits those outcomes reconstruct must be the bits the controllers stored
// (machine.ReadBits) — the end-to-end check that commit order, bit
// ownership and the result FIFOs agree with what the tape will replay.
func (m *Model) EndTape(measBits [][]int, bits []int) *Tape {
	t := m.rec
	m.rec = nil
	if t == nil {
		return nil
	}
	taken := make([]int, len(measBits))
	for _, op := range t.ops {
		if m.tables[op.node][op.idx].Role != RoleMeasure {
			continue
		}
		n := int(op.node)
		if n >= len(measBits) || taken[n] >= len(measBits[n]) {
			return nil
		}
		t.cbits = append(t.cbits, measBits[n][taken[n]])
		taken[n]++
	}
	for n, bitsOf := range measBits {
		if taken[n] != len(bitsOf) {
			return nil
		}
	}
	got := make([]int, len(bits))
	t.scatter(got)
	for b := range bits {
		if got[b] != bits[b] {
			return nil
		}
	}
	return t
}

// scatter writes outs to their classical bits. Bits past len(bits) are
// machine-internal (Compiled.PublicBits) and dropped, as ReadBits drops
// them.
func (t *Tape) scatter(bits []int) {
	for k, cb := range t.cbits {
		if cb < len(bits) {
			bits[cb] = t.outs[k]
		}
	}
}

// Replay runs one shot off the tape: the backend is reset with seed, the
// recorded applications are made again — or, where the backend's outcome
// map could be hoisted, sampled — and bits receives the classical bits.
// Every bit the program writes is written; the rest of bits is untouched.
func (m *Model) Replay(t *Tape, seed int64, bits []int) {
	if !t.tried {
		t.tried = true
		t.affine = m.buildAffine(t)
	}
	if t.affine != nil {
		// The map needs the shot's draws and nothing else; the tableau
		// stays as the symbolic pass left it until the next Reset.
		rng := m.backend.(*StabilizerBackend).Rng
		rng.Seed(seed)
		t.affine.Sample(rng, t.outs)
	} else {
		m.backend.Reset(seed)
		k := 0
		for _, op := range t.ops {
			e := m.tables[op.node][op.idx]
			out := m.backend.Apply(e.Kind, e.Param, e.Qubit, e.Partner)
			if e.Role == RoleMeasure {
				t.outs[k] = out
				k++
			}
		}
	}
	t.scatter(bits)
}

// buildAffine hoists what a stabilizer shot cannot change one level
// further (stabilizer.Symbolic): one symbolic-sign pass of the tape over
// the backend's own tableau yields outcomes = c ⊕ A·b, and a shot becomes
// reseed, one draw per random measurement, a bit-matrix product. Nil —
// plain replay — for other backends, for tapes with Reset or EPR ops
// (a reset's correction is conditioned on a draw), and behind a comm
// boundary (draws split across two RNG streams).
func (m *Model) buildAffine(t *Tape) *stabilizer.Affine {
	sb, ok := m.backend.(*StabilizerBackend)
	if !ok || sb.comm > 0 {
		return nil
	}
	sym := stabilizer.NewSymbolic(sb.Tab, len(t.cbits))
	for _, op := range t.ops {
		e := m.tables[op.node][op.idx]
		switch {
		case e.Role == RoleMeasure:
			sym.MeasureZ(e.Qubit)
		case e.Kind == circuit.Reset || e.Kind == circuit.EPR:
			return nil
		default:
			sb.Apply(e.Kind, e.Param, e.Qubit, e.Partner)
		}
	}
	return sym.Affine()
}
