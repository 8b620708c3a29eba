package compiler

import (
	"fmt"

	"dhisq/internal/chip"
	"dhisq/internal/isa"
)

// Assemble is the emission pass: it concatenates each controller's
// scheduled units into one HISQ program, appends the halt, validates every
// binary, and packages programs, codeword tables, bit ownership and the
// resolved mapping into the immutable Compiled artifact.
type Assemble struct{}

// Name implements Pass.
func (Assemble) Name() string { return "assemble" }

// Run implements Pass.
func (Assemble) Run(st *State) error {
	if st.scheduled == nil {
		return fmt.Errorf("compiler: assemble before schedule")
	}
	out := &Compiled{
		Programs:   make([]*isa.Program, len(st.scheduled)),
		Tables:     make([][]chip.TableEntry, len(st.scheduled)),
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
	for i, s := range st.scheduled {
		p := &isa.Program{}
		for _, u := range s.units {
			p.Instrs = append(p.Instrs, u.ins...)
		}
		p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpHALT})
		if err := p.Validate(); err != nil {
			return fmt.Errorf("compiler: controller %d: %w", i, err)
		}
		out.Programs[i] = p
		out.Tables[i] = s.table
		st.stats.Instructions += p.Len()
		st.stats.TableEntries += len(s.table)
	}
	out.Stats = st.stats
	st.out = out
	return nil
}
