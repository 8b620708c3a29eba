package machine

import (
	"slices"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
)

// The seeded outcome map. On the seeded backend a measurement's outcome is
// chip.Outcome(seed, q, r) — the r-th measurement of qubit q — whatever
// order the qubits are measured in, so a shot's bits are those of the
// sequential program (baseline.Run): the event engine, the controllers and
// the fabric add nothing to them. Public bit b holds the outcome of the last
// Measure into b in program order, and that measurement's (q, r) is read
// off the circuit once. A shot whose Result nobody reads but for its bits,
// EPR pairs and congestion digest (runner.Tally.Add past a point's shot 0)
// is then one hash per bit.
//
// Only there, and only while nothing else about a shot can vary: EPR ops
// are never conditioned, so every shot generates the same pairs; with the
// fabric's contention off its congestion digest is zero every shot; and
// with no event log no per-shot record is owed. On the tableau or the state
// vector the bits depend on the commit order of the draws, which timing can
// change from shot to shot.

// outcomeSource is where a public bit's value comes from: the r-th
// measurement of qubit q, or nowhere (q < 0, a bit no measurement writes,
// which reads as 0).
type outcomeSource struct {
	q int
	r uint64
}

// outcomeSources maps the first n classical bits of c to their sources. A
// multi-chip expansion measures only communication qubits on top, so the
// data qubits' (q, r) carry over; bits at or past n are dropped, as ReadBits
// drops them.
func outcomeSources(c *circuit.Circuit, n int) []outcomeSource {
	src := make([]outcomeSource, n)
	for b := range src {
		src[b].q = -1
	}
	reps := make([]uint64, c.NumQubits)
	for _, op := range c.Ops {
		if op.Kind != circuit.Measure {
			continue
		}
		q := op.Qubits[0]
		if op.CBit < n {
			src[op.CBit] = outcomeSource{q, reps[q]}
		}
		reps[q]++
	}
	return src
}

// mappable reports whether the outcome map may stand in for this machine's
// shots: a machine built for a circuit, on the seeded backend, with no
// event log, no fabric contention, and no failed check behind it.
func (m *Machine) mappable() bool {
	_, seeded := m.Chip.Backend().(*chip.SeededBackend)
	return seeded && m.circ != nil && !m.outOff && !m.Cfg.LogEvents && m.Cfg.Net.LinkSerialization == 0
}

// TallyShot is Shot for a caller that reads only the bits of a shot and
// its Result's EPRPairs and Net: runner.Tally.Add folding any shot but a
// point's shot 0. Where the outcome map applies, the bits come off it and
// nothing simulates — the Result is the checking shot's EPRPairs and Net,
// and the rest of it is zero. Otherwise it is Shot.
//
// The first TallyShot after a Load of other programs is a full Shot that
// checks the map, building it first if this machine has none: the map's
// bits at that seed must be the bits the controllers stored, as EndTape
// checks the commit tape. A map that fails is never used again on this
// machine, and counts a TapeStats fallback.
func (m *Machine) TallyShot(seed int64) (Result, []int, error) {
	if m.outOK {
		m.tapeStat.Replayed++
		return m.outRes, m.mappedBits(seed), nil
	}
	res, bits, err := m.Shot(seed)
	if err != nil || !m.mappable() {
		return res, bits, err
	}
	if m.outMap == nil {
		m.outMap = outcomeSources(m.circ, len(bits))
	}
	if !slices.Equal(m.mappedBits(seed), bits) {
		m.outOff = true
		m.tapeStat.Fallbacks++
		return res, bits, nil
	}
	m.outOK, m.outRes = true, Result{EPRPairs: res.EPRPairs, Net: res.Net}
	return res, bits, nil
}

// mappedBits is the outcome map's readout of the shot with the given seed.
func (m *Machine) mappedBits(seed int64) []int {
	bits := make([]int, len(m.outMap))
	for b, s := range m.outMap {
		if s.q >= 0 {
			bits[b] = chip.Outcome(seed, s.q, s.r)
		}
	}
	return bits
}
