package compiler

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/placement"
)

// expandChips rewrites the compilation state for a multi-chip device
// (Options.Chips > 1): the placement policy's chip partitioner splits the
// data qubits across chips, circuit.ExpandRemote appends one communication
// qubit per chip and teleports every cross-chip two-qubit gate through the
// EPR resource, and controllers are laid out chip-grouped — chip j's data
// qubits in ascending order, then its comm qubit — so intra-chip traffic
// stays local on the mesh whatever shape the partition takes. The original
// classical-bit count is recorded as PublicBits; the teleport-correction
// bits after it are machine-internal.
func expandChips(st *State) error {
	k, n := st.Opt.Chips, st.Circuit.NumQubits
	if k > n {
		return fmt.Errorf("compiler: %d chips exceed %d qubits (each chip needs at least one data qubit)", k, n)
	}
	if st.Mapping != nil {
		return fmt.Errorf("compiler: explicit mapping with %d chips unsupported (the chip expansion adds communication qubits; use a placement policy)", k)
	}
	chipOf, err := placement.PartitionChips(st.Circuit, k, st.Opt.Placement)
	if err != nil {
		return err
	}
	expanded, err := circuit.ExpandRemote(st.Circuit, chipOf, k)
	if err != nil {
		return err
	}
	st.stats.RemoteGates = circuit.RemoteGateCount(st.Circuit, chipOf)
	st.PublicBits = st.Circuit.NumBits
	st.Circuit = expanded

	mapping := make([]int, expanded.NumQubits)
	pos := 0
	for j := 0; j < k; j++ {
		for q := 0; q < n; q++ {
			if chipOf[q] == j {
				mapping[q] = pos
				pos++
			}
		}
		mapping[n+j] = pos
		pos++
	}
	st.Mapping = mapping
	return nil
}
