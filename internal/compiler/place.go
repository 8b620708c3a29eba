package compiler

import (
	"cmp"
	"fmt"

	"dhisq/internal/placement"
)

// Place resolves the qubit→controller mapping. An explicit caller mapping
// always wins (benchmark suites and hand-placed circuits keep their
// layouts); otherwise the policy named by Options.Placement computes one.
// The identity policy keeps the nil-mapping convention — byte-identical to
// the pre-pipeline compiler, and hash-identical in the artifact cache.
type Place struct{}

// Name implements Pass.
func (Place) Name() string { return "place" }

// Run implements Pass.
func (Place) Run(st *State) error {
	name := cmp.Or(st.Opt.Placement, placement.Default)
	if err := placement.Valid(name); err != nil {
		return err
	}
	if st.Opt.Chips > 1 {
		// Multi-chip: partition qubits across chips, expand cross-chip gates
		// into EPR-mediated remote constructions, and lay controllers out
		// chip-grouped. Computes st.Mapping itself, so the pass ends here.
		return expandChips(st)
	}
	if st.Mapping != nil || name == placement.Default {
		// Explicit mapping, or identity: nothing to compute. Identity skips
		// the policy call entirely so topology-less callers (unit tests
		// driving Compile with stub windows) stay supported.
		return nil
	}
	if st.Topo == nil {
		return fmt.Errorf("compiler: placement policy %q needs a topology (use the State entry point)", name)
	}
	mapping, err := placement.Place(name, st.Circuit, st.Topo)
	if err != nil {
		return err
	}
	st.Mapping = mapping
	return nil
}
