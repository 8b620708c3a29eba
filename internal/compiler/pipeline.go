package compiler

import (
	"fmt"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/network"
)

// State is the shared compilation state the passes transform in sequence.
// Callers fill the input fields (Circuit, Mapping, Topo, Windows, Opt);
// each pass reads what its predecessors produced and writes its own
// section. The zero value of every derived field means "not yet computed",
// so a custom pipeline omitting a pass fails loudly rather than silently.
type State struct {
	// Inputs.
	Circuit *circuit.Circuit
	Mapping []int // qubit -> controller; nil lets the Place pass decide
	// Topo is the built fabric topology. Only the Place pass needs it (for
	// mesh distances), and only when a non-identity policy must compute a
	// mapping; window calibration goes through Windows.
	Topo    *network.Topology
	Windows Windows
	Opt     Options

	// Produced by Place when Opt.Chips > 1: the pre-expansion classical-bit
	// count (teleport bits live after it in the expanded circuit).
	PublicBits int

	// Produced by Lower: one timed stream per controller, the codeword
	// tables, the bit ownership table, the parameter-slot table (symbolic
	// angles interned into codeword tables), the per-controller
	// measured-bit lists of a static program (nil otherwise), and the
	// lowering-side stats.
	streams     []stream
	tables      [][]chip.TableEntry
	bitOwner    []int
	bitMeasured []bool
	paramSlots  []ParamSlot
	measBits    [][]int

	// Accumulated across passes; Assemble finalizes it into out.Stats.
	stats Stats

	// Produced by Assemble.
	out *Compiled
}

// Pass is one stage of the compilation pipeline. Passes mutate the State
// they are handed; an error aborts the pipeline.
type Pass interface {
	Name() string
	Run(st *State) error
}

// Pipeline is an ordered pass sequence over a State.
type Pipeline struct {
	Passes []Pass
}

// NewPipeline returns the standard three-pass pipeline:
// Place → Lower → Assemble.
func NewPipeline() *Pipeline {
	return &Pipeline{Passes: []Pass{Place{}, Lower{}, Assemble{}}}
}

// Run executes the passes in order and returns the assembled artifact.
func (p *Pipeline) Run(st *State) (*Compiled, error) {
	if st.Circuit == nil {
		return nil, fmt.Errorf("compiler: nil circuit")
	}
	// Validate before any pass runs: placement policies walk the op list
	// (interaction graphs index bits and qubits), so a malformed circuit
	// must fail here with the validator's error, exactly as the
	// pre-pipeline compiler did, not panic inside a policy.
	if err := st.Circuit.Validate(); err != nil {
		return nil, err
	}
	for _, pass := range p.Passes {
		if err := pass.Run(st); err != nil {
			return nil, err
		}
	}
	if st.out == nil {
		return nil, fmt.Errorf("compiler: pipeline %v produced no artifact (missing Assemble?)", p.names())
	}
	return st.out, nil
}

func (p *Pipeline) names() []string {
	out := make([]string, len(p.Passes))
	for i, pass := range p.Passes {
		out[i] = pass.Name()
	}
	return out
}
