package compiler

import (
	"bytes"
	"reflect"
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
// both on (the default "fixed" schedule) and off (Schedule "padded" against
// the oracle's in-place sync padding: the ablation path stays pinned too).
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
					opt.Schedule = "padded"
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

// TestPipelineMatchesMonolithWithFeedforward covers the conditioned-commit
// directive (send/recv/xor/branch assembly happens in Schedule) and
// explicit mappings, which the standard workloads don't exercise.
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

// TestRowMajorPolicyMatchesIdentityBytes: the rowmajor policy writes the
// identity assignment out explicitly, so its programs must be
// byte-identical to the legacy nil-mapping compile (only the cache
// fingerprint differs).
func TestRowMajorPolicyMatchesIdentityBytes(t *testing.T) {
	c := workloads.GHZ(9)
	topo, fab := fabricFor(t, 9, network.TopoMesh)
	opt := DefaultOptions(topo.Root, topo.N)
	want, err := Compile(c, nil, fab, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Placement = "rowmajor"
	got, err := NewPipeline().Run(&State{Circuit: c, Topo: topo, Windows: fab, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if got.Mapping == nil {
		t.Fatal("rowmajor pipeline recorded no mapping")
	}
	assertSameArtifact(t, "rowmajor-vs-identity", got, want)
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
