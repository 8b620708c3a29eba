package compiler

import (
	"fmt"

	"dhisq/internal/isa"
)

// Assemble is the emission pass: it writes each controller's program — the
// lowered arena with the sync bookings merged in, then the halt — into
// one allocation sized exactly, validates every binary, and packages
// programs, codeword tables, bit ownership and the resolved mapping into
// the immutable Compiled artifact.
type Assemble struct{}

// Name implements Pass.
func (Assemble) Name() string { return "assemble" }

// Run implements Pass.
func (Assemble) Run(st *State) error {
	if st.streams == nil {
		return fmt.Errorf("compiler: assemble before lower")
	}
	out := &Compiled{
		Programs:   make([]*isa.Program, len(st.streams)),
		Tables:     st.tables,
		BitOwner:   st.bitOwner,
		MemBytes:   4*st.Circuit.NumBits + 4096,
		ParamSlots: st.paramSlots,
		PublicBits: st.PublicBits,
		MeasBits:   st.measBits,
	}
	if st.Mapping != nil {
		// Copy: the artifact is cached and shared process-wide, and an
		// explicit st.Mapping aliases the caller's slice — a caller
		// mutating it later must not corrupt the echoed mapping.
		out.Mapping = append([]int(nil), st.Mapping...)
	}
	total := 0
	for i := range st.streams {
		total += st.streams[i].size + 1
	}
	all := make([]isa.Instr, total)
	progs := make([]isa.Program, len(st.streams))
	for i := range st.streams {
		s := &st.streams[i]
		n := s.size + 1
		p := &progs[i]
		p.Instrs = merge(all[:0:n], s)
		all = all[n:]
		if len(p.Instrs) != n {
			return fmt.Errorf("compiler: controller %d: assembled %d instructions, lowered %d", i, len(p.Instrs), n)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("compiler: controller %d: %w", i, err)
		}
		out.Programs[i] = p
		st.stats.Instructions += p.Len()
		st.stats.TableEntries += len(st.tables[i])
	}
	out.Stats = st.stats
	st.out = out
	return nil
}

// merge appends the stream's program to dst: the arena in order, each
// booking's sync (and the halves of a wait it split) in place of its range,
// and the halt.
func merge(dst []isa.Instr, s *stream) []isa.Instr {
	pos := int32(0)
	for _, b := range s.syncs {
		dst = append(dst, s.ins[pos:b.at]...)
		dst = appendWait(dst, b.before)
		dst = append(dst, isa.Instr{Op: isa.OpSYNC, Imm: b.target})
		dst = appendWait(dst, b.after)
		pos = b.end
	}
	dst = append(dst, s.ins[pos:]...)
	return append(dst, isa.Instr{Op: isa.OpHALT})
}
