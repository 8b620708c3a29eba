package machine

import "dhisq/internal/compiler"

// TapeStats counts, over a machine's lifetime, what its commit tape and its
// seeded outcome map (outcomes.go) did.
type TapeStats struct {
	// Replayed counts shots served off the tape or the outcome map: no
	// event engine, no controllers, no fabric.
	Replayed uint64
	// Fallbacks counts recording shots whose self-check failed, after which
	// the machine simulates every shot of that program in full, and
	// outcome-map checks that failed, after which TallyShot is Shot on this
	// machine for good. Expected 0: a non-zero count is a program the
	// compiler called static that did not behave so, or a map that read
	// the circuit otherwise than the control stack ran it.
	Fallbacks uint64
}

// TapeStats returns the machine's tape counters.
func (m *Machine) TapeStats() TapeStats { return m.tapeStat }

// retape decides, as cp is loaded, what becomes of the tape and of the
// outcome map's check. A BindParams copy shares the recorded program's
// Programs and differs from it in table angles only, which replay reads
// afresh and seeded outcomes ignore; anything else is another program, and
// both go. Whether cp may be taped at all is decided here too, once per
// Load: static control flow, and no TELF event log, which a replay would
// have to reproduce.
func (m *Machine) retape(cp *compiler.Compiled) {
	if old := m.loaded; old == nil || len(cp.Programs) == 0 ||
		len(cp.Programs) != len(old.Programs) || &cp.Programs[0] != &old.Programs[0] {
		m.tape, m.outOK = nil, false
	}
	m.tapeable = cp.Static() && !m.Cfg.LogEvents
}

// Shot runs one repetition of the loaded program with the given backend
// seed and returns its Result and public classical bits — the values
// Reset(seed), Run, ReadBits return, which remain the full simulation and
// the oracle this is tested against. The first shot of a tapeable program
// is that full simulation, recorded; later shots replay the record against
// the backend (chip.Model.Replay) and copy the Result, which for a static
// program is the same every shot. After a taped shot the controllers still
// hold the last simulated shot's memory: read bits from here, not ReadBits.
func (m *Machine) Shot(seed int64) (Result, []int, error) {
	if m.tape != nil {
		bits := make([]int, m.publicBits())
		m.Chip.Replay(m.tape, seed, bits)
		m.tapeStat.Replayed++
		return m.tapeRes, bits, nil
	}
	m.Reset(seed)
	if m.tapeable {
		m.Chip.BeginTape()
	}
	res, err := m.Run()
	if err != nil {
		return res, nil, err
	}
	bits, err := m.ReadBits()
	if err != nil {
		return res, nil, err
	}
	if m.tapeable {
		// Run returned no error: every controller halted, the chip raised
		// nothing. What is left to check is the tape against the readout.
		m.tape, m.tapeRes = m.Chip.EndTape(m.loaded.MeasBits, bits), res
		if m.tape == nil {
			m.tapeable = false
			m.tapeStat.Fallbacks++
		}
	}
	return res, bits, nil
}
