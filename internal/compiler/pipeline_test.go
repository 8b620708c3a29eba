package compiler

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/isa"
	"dhisq/internal/network"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// The pipeline-equivalence suite is the refactor's contract: the default
// pass pipeline must produce byte-for-byte the same compiled programs —
// not merely the same shot results — as the pre-refactor monolithic
// compiler (legacy_test.go) across workloads and topologies.

func equivCases() []struct {
	name  string
	build func() *circuit.Circuit
} {
	return []struct {
		name  string
		build func() *circuit.Circuit
	}{
		{"ghz_n9", func() *circuit.Circuit { return workloads.GHZ(9) }},
		{"bv_n10", func() *circuit.Circuit { return workloads.BV(10, workloads.AlternatingSecret) }},
		{"qft_n8", func() *circuit.Circuit { return workloads.QFT(8) }},
	}
}

func fabricFor(t *testing.T, n int, kind network.TopologyKind) (*network.Topology, *network.Fabric) {
	t.Helper()
	cfg := network.DefaultConfig(n)
	cfg.Topology = kind
	topo, err := network.NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, network.NewFabric(sim.NewEngine(), topo, nil)
}

// assertSameArtifact diffs two compiled artifacts byte-for-byte: encoded
// program bytes per controller, codeword tables, bit owners, memory
// footprint and stats.
func assertSameArtifact(t *testing.T, label string, got, want *Compiled) {
	t.Helper()
	if len(got.Programs) != len(want.Programs) {
		t.Fatalf("%s: %d programs vs %d", label, len(got.Programs), len(want.Programs))
	}
	for i := range got.Programs {
		gb, err := isa.EncodeProgram(got.Programs[i])
		if err != nil {
			t.Fatalf("%s: encode got[%d]: %v", label, i, err)
		}
		wb, err := isa.EncodeProgram(want.Programs[i])
		if err != nil {
			t.Fatalf("%s: encode want[%d]: %v", label, i, err)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: controller %d program bytes differ (%d vs %d bytes)", label, i, len(gb), len(wb))
		}
		if !reflect.DeepEqual(got.Tables[i], want.Tables[i]) {
			t.Errorf("%s: controller %d codeword tables differ", label, i)
		}
	}
	if !reflect.DeepEqual(got.BitOwner, want.BitOwner) {
		t.Errorf("%s: bit owners differ: %v vs %v", label, got.BitOwner, want.BitOwner)
	}
	if got.MemBytes != want.MemBytes {
		t.Errorf("%s: mem bytes %d vs %d", label, got.MemBytes, want.MemBytes)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats %+v vs %+v", label, got.Stats, want.Stats)
	}
}

// TestPipelineMatchesMonolith: default pipeline == pre-refactor compiler,
// byte-for-byte, on GHZ/BV/QFT × mesh/torus/tree, with advance booking
// both on (the default) and off (Padded, against the oracle's in-place
// sync padding: the ablation path stays pinned too).
func TestPipelineMatchesMonolith(t *testing.T) {
	kinds := []network.TopologyKind{network.TopoMesh, network.TopoTorus, network.TopoTree}
	for _, tc := range equivCases() {
		for _, kind := range kinds {
			for _, advance := range []bool{true, false} {
				c := tc.build()
				topo, fab := fabricFor(t, c.NumQubits, kind)
				opt := DefaultOptions(topo.Root, topo.N)
				label := tc.name + "/" + kind.String()
				if !advance {
					opt.Padded = true
					label += "/no-advance"
				}
				want, err := compileMonolithic(c, nil, fab, opt, advance)
				if err != nil {
					t.Fatalf("%s: monolith: %v", label, err)
				}
				got, err := Compile(c, nil, fab, opt)
				if err != nil {
					t.Fatalf("%s: pipeline: %v", label, err)
				}
				assertSameArtifact(t, label, got, want)
			}
		}
	}
}

// TestPipelineMatchesMonolithWithFeedforward covers conditioned commits
// (the send/recv/xor gather and the branch body Lower writes) and explicit
// mappings, which the standard workloads don't exercise.
func TestPipelineMatchesMonolithWithFeedforward(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New(6)
		c.H(0)
		c.CNOT(0, 3)
		c.MeasureInto(0, 0)
		c.MeasureInto(3, 1)
		c.CondGate(circuit.X, circuit.Condition{Bits: []int{0, 1}, Parity: 1}, 5)
		c.BarrierAll()
		c.CondGate(circuit.Z, circuit.Condition{Bits: []int{0}, Parity: 0}, 0)
		c.DelayGate(2, 40)
		c.CNOT(4, 5)
		for q := 0; q < 6; q++ {
			c.MeasureInto(q, q)
		}
		return c
	}
	mappings := map[string][]int{
		"identity-nil": nil,
		"reversed":     {5, 4, 3, 2, 1, 0},
	}
	for name, mapping := range mappings {
		c := build()
		topo, fab := fabricFor(t, c.NumQubits, network.TopoMesh)
		opt := DefaultOptions(topo.Root, topo.N)
		want, err := compileMonolithic(c, mapping, fab, opt, true)
		if err != nil {
			t.Fatalf("%s: monolith: %v", name, err)
		}
		got, err := Compile(c, mapping, fab, opt)
		if err != nil {
			t.Fatalf("%s: pipeline: %v", name, err)
		}
		assertSameArtifact(t, name, got, want)
	}
}

// FuzzCompileMatchesMonolith decodes bytes into a small circuit — one- and
// two-qubit gates, measurements, parity-conditioned gates on local and
// remote bits, barriers and delays, under the identity or a reversed
// mapping — and holds the pipeline to the monolith byte for byte on mesh,
// torus and tree, with advance booking on and off.
func FuzzCompileMatchesMonolith(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 2, 0, 1, 3, 0, 0, 3, 1, 1, 4, 2, 0x41, 5, 0, 0, 6, 1, 200, 4, 0, 0x80})
	f.Add([]byte{0x85, 1, 2, 3, 2, 4, 9, 3, 5, 5, 3, 1, 1, 4, 3, 0xc1, 0, 1, 7, 6, 0, 17, 2, 5, 0x40})
	f.Add([]byte{1, 6, 0, 255, 3, 0, 0, 5, 0, 0, 4, 1, 0, 2, 1, 0xc0, 6, 1, 33})
	kinds := []network.TopologyKind{network.TopoMesh, network.TopoTorus, network.TopoTree}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, mapping := fuzzCircuit(data)
		for _, kind := range kinds {
			for _, padded := range []bool{false, true} {
				topo, fab := fabricFor(t, c.NumQubits, kind)
				opt := DefaultOptions(topo.Root, topo.N)
				opt.Padded = padded
				label := fmt.Sprintf("%s/padded=%v", kind, padded)
				want, err := compileMonolithic(c, mapping, fab, opt, !padded)
				if err != nil {
					t.Fatalf("%s: monolith: %v", label, err)
				}
				got, err := Compile(c, mapping, fab, opt)
				if err != nil {
					t.Fatalf("%s: pipeline: %v", label, err)
				}
				assertSameArtifact(t, label, got, want)
			}
		}
	})
}

// fuzzCircuit reads data[0] as the qubit count (2–7) and, in its top bit, a
// reversed mapping; then each three bytes as one op: a selector, a qubit
// and an argument. A conditioned gate reads one or two bits measured
// earlier, so its bits are local or remote as the measurements fell.
func fuzzCircuit(data []byte) (*circuit.Circuit, []int) {
	if len(data) == 0 {
		return circuit.New(2), nil
	}
	n := 2 + int(data[0]&0x7f)%6
	c := circuit.New(n)
	var mapping []int
	if data[0]&0x80 != 0 {
		for q := n - 1; q >= 0; q-- {
			mapping = append(mapping, q)
		}
	}
	ones := []circuit.Kind{circuit.H, circuit.X, circuit.Z, circuit.S, circuit.T}
	var measured []int
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		q, b := int(data[1])%n, int(data[2])
		switch data[0] % 7 {
		case 0:
			c.Gate(ones[b%len(ones)], q)
		case 1:
			c.RZGate(q, float64(b)/16)
		case 2:
			p := (q + 1 + b%(n-1)) % n
			switch b >> 6 {
			case 0:
				c.CNOT(q, p)
			case 1:
				c.CZ(q, p)
			default:
				c.CPhaseGate(q, p, float64(b)/8)
			}
		case 3:
			bit := b % n
			if !slices.Contains(measured, bit) {
				measured = append(measured, bit)
			}
			c.MeasureInto(q, bit)
		case 4:
			if len(measured) == 0 {
				continue
			}
			bits := []int{measured[b%len(measured)]}
			if o := measured[(b+1)%len(measured)]; b&0x40 != 0 && o != bits[0] {
				bits = append(bits, o)
			}
			c.CondGate(ones[b%len(ones)], circuit.Condition{Bits: bits, Parity: b >> 7}, q)
		case 5:
			c.BarrierAll()
		case 6:
			c.DelayGate(q, int64(b*b)) // past 2047 cycles: li + waitr
		}
	}
	return c, mapping
}

// TestInteractionPolicyCompiles: a non-trivial policy resolves through the
// Place pass, records its mapping on the artifact, and the programs still
// validate.
func TestInteractionPolicyCompiles(t *testing.T) {
	c := workloads.BV(10, workloads.AlternatingSecret)
	topo, fab := fabricFor(t, 10, network.TopoMesh)
	opt := DefaultOptions(topo.Root, topo.N)
	opt.Placement = "interaction"
	cp, err := NewPipeline().Run(&State{Circuit: c, Topo: topo, Windows: fab, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Mapping) != c.NumQubits {
		t.Fatalf("mapping length %d, want %d", len(cp.Mapping), c.NumQubits)
	}
	// An explicit caller mapping beats the policy.
	explicit := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	cp2, err := NewPipeline().Run(&State{Circuit: c, Mapping: explicit, Topo: topo, Windows: fab, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp2.Mapping, explicit) {
		t.Fatalf("explicit mapping overridden: %v", cp2.Mapping)
	}
}

// TestPlacementPolicyErrors: unknown policies and topology-less
// non-identity placement fail loudly.
func TestPlacementPolicyErrors(t *testing.T) {
	c := workloads.GHZ(4)
	_, fab := fabricFor(t, 4, network.TopoMesh)
	opt := DefaultOptions(4, 4)
	opt.Placement = "bogus"
	if _, err := Compile(c, nil, fab, opt); err == nil {
		t.Fatal("unknown policy accepted")
	}
	opt.Placement = "interaction"
	if _, err := Compile(c, nil, fab, opt); err == nil {
		t.Fatal("interaction placement without topology accepted")
	}
}

// TestMalformedCircuitFailsBeforePlacement: a circuit that fails
// validation must return the validator's error — not panic inside a
// placement policy that walks the op list (regression: interaction
// weights index op.CBit/op.Qubits before Lower's own validation).
func TestMalformedCircuitFailsBeforePlacement(t *testing.T) {
	c := circuit.New(4)
	c.H(0)
	c.Ops = append(c.Ops, circuit.Op{Kind: circuit.Measure, Qubits: []int{1}, CBit: 99})
	topo, fab := fabricFor(t, 4, network.TopoMesh)
	opt := DefaultOptions(topo.Root, topo.N)
	opt.Placement = "interaction"
	_, err := NewPipeline().Run(&State{Circuit: c, Topo: topo, Windows: fab, Opt: opt})
	if err == nil {
		t.Fatal("malformed circuit compiled")
	}
}
