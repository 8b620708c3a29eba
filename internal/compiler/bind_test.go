package compiler

import (
	"math"
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
	"dhisq/internal/workloads"
)

// The bind-equivalence suite is the parameter-binding layer's contract:
// for any parameter map, BindParams applied to the structural (skeleton)
// artifact must be byte-for-byte identical to a fresh full compile of the
// pre-bound circuit — proving that rotation angles never affect placement,
// guards, sync bookings or any instruction byte, only codeword-table
// Params. It runs across concrete and parameterized workloads, all three
// topologies, and every placement policy.

func bindCases() []struct {
	name    string
	build   func() *circuit.Circuit
	binding func(k int) map[string]float64 // nil params -> empty map
} {
	empty := func(int) map[string]float64 { return map[string]float64{} }
	return []struct {
		name    string
		build   func() *circuit.Circuit
		binding func(k int) map[string]float64
	}{
		{"ghz_n9", func() *circuit.Circuit { return workloads.GHZ(9) }, empty},
		{"qft_n8", func() *circuit.Circuit { return workloads.QFT(8) }, empty},
		{"qft_sweep_n8", func() *circuit.Circuit { return workloads.QFTSweep(8) },
			func(k int) map[string]float64 { return workloads.QFTSweepPoint(8, k) }},
		{"vqe_n8x2", func() *circuit.Circuit { return workloads.VQEAnsatz(8, 2) },
			func(k int) map[string]float64 { return workloads.VQEAnsatzPoint(8, 2, k) }},
		{"vqe_n12x2", func() *circuit.Circuit { return workloads.VQEAnsatz(12, 2) },
			func(k int) map[string]float64 { return workloads.VQEAnsatzPoint(12, 2, k) }},
		{"qft_sweep_n16", func() *circuit.Circuit { return workloads.QFTSweep(16) },
			func(k int) map[string]float64 { return workloads.QFTSweepPoint(16, k) }},
	}
}

func compileWith(t *testing.T, c *circuit.Circuit, kind network.TopologyKind, policy string) *Compiled {
	t.Helper()
	topo, fab := fabricFor(t, c.NumQubits, kind)
	opt := DefaultOptions(topo.Root, topo.N)
	opt.Placement = policy
	cp, err := NewPipeline().Run(&State{Circuit: c, Topo: topo, Windows: fab, Opt: opt})
	if err != nil {
		t.Fatalf("compile(%s, %q): %v", kind, policy, err)
	}
	return cp
}

// TestBindEquivalence: BindParams(structural artifact) == full compile of
// the bound circuit, byte-for-byte, across workloads × mesh/torus/tree ×
// identity/interaction, at several parameter points.
func TestBindEquivalence(t *testing.T) {
	kinds := []network.TopologyKind{network.TopoMesh, network.TopoTorus, network.TopoTree}
	policies := []string{"identity", "interaction"}
	for _, tc := range bindCases() {
		for _, kind := range kinds {
			for _, policy := range policies {
				skeleton := tc.build()
				skel := compileWith(t, skeleton, kind, policy)
				for _, k := range []int{0, 1, 7} {
					label := tc.name + "/" + kind.String() + "/" + policy
					binding := tc.binding(k)
					bound, err := skeleton.Bind(binding)
					if err != nil {
						t.Fatalf("%s: bind point %d: %v", label, k, err)
					}
					want := compileWith(t, bound, kind, policy)
					got, err := skel.BindParams(binding)
					if err != nil {
						t.Fatalf("%s: BindParams point %d: %v", label, k, err)
					}
					assertSameArtifact(t, label, got, want)
					if !reflect.DeepEqual(got.Mapping, want.Mapping) {
						t.Errorf("%s: mappings differ: %v vs %v", label, got.Mapping, want.Mapping)
					}
					if !reflect.DeepEqual(got.ParamSlots, want.ParamSlots) {
						t.Errorf("%s: param slots differ: %v vs %v", label, got.ParamSlots, want.ParamSlots)
					}
				}
			}
		}
	}
}

// TestBindLeavesSkeletonUntouched: the cached skeleton artifact is shared
// process-wide; patching must never write through to it.
func TestBindLeavesSkeletonUntouched(t *testing.T) {
	c := workloads.VQEAnsatz(6, 1)
	skel := compileWith(t, c, network.TopoMesh, "")
	snapshot := make([][]float64, len(skel.Tables))
	for i, tbl := range skel.Tables {
		for _, e := range tbl {
			snapshot[i] = append(snapshot[i], e.Param)
		}
	}
	if _, err := skel.BindParams(workloads.VQEAnsatzPoint(6, 1, 3)); err != nil {
		t.Fatal(err)
	}
	for i, tbl := range skel.Tables {
		for j, e := range tbl {
			if e.Param != snapshot[i][j] {
				t.Fatalf("BindParams mutated the shared skeleton: table %d row %d", i, j)
			}
		}
	}
}

// TestRebind: a bound artifact keeps its slots, so re-binding it equals
// binding the skeleton directly.
func TestRebind(t *testing.T) {
	c := workloads.VQEAnsatz(6, 1)
	skel := compileWith(t, c, network.TopoMesh, "")
	p1, p2 := workloads.VQEAnsatzPoint(6, 1, 1), workloads.VQEAnsatzPoint(6, 1, 2)
	once, err := skel.BindParams(p2)
	if err != nil {
		t.Fatal(err)
	}
	step, err := skel.BindParams(p1)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := step.BindParams(p2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameArtifact(t, "rebind", twice, once)
}

// TestBindSharedAndCollidingSymbols: one symbol reused on one qubit shares
// a table row (and so a slot); two symbols bound to the same value keep
// distinct rows — patching one must not alias the other.
func TestBindSharedAndCollidingSymbols(t *testing.T) {
	c := circuit.New(2)
	c.RZSym(0, "a").RZSym(0, "a").RZSym(1, "b")
	c.MeasureInto(0, 0).MeasureInto(1, 1)
	skel := compileWith(t, c, network.TopoMesh, "")
	if got := len(skel.ParamSlots); got != 2 {
		t.Fatalf("want 2 slots (a interned once, b once), got %d: %v", got, skel.ParamSlots)
	}
	binding := map[string]float64{"a": 0.5, "b": 0.5}
	bc, err := c.Bind(binding)
	if err != nil {
		t.Fatal(err)
	}
	want := compileWith(t, bc, network.TopoMesh, "")
	got, err := skel.BindParams(binding)
	if err != nil {
		t.Fatal(err)
	}
	assertSameArtifact(t, "colliding-values", got, want)
	// Distinct rows: rebinding only b must leave a's row at 0.5.
	again, err := got.BindParams(map[string]float64{"a": 0.5, "b": 1.25})
	if err != nil {
		t.Fatal(err)
	}
	var seen []float64
	for _, tbl := range again.Tables {
		for _, e := range tbl {
			if e.Sym != "" {
				seen = append(seen, e.Param)
			}
		}
	}
	if !reflect.DeepEqual(seen, []float64{0.5, 1.25}) && !reflect.DeepEqual(seen, []float64{1.25, 0.5}) {
		t.Fatalf("symbol rows aliased: %v", seen)
	}
}

// TestBindErrors: missing symbols, unknown symbols, and NaN values all
// fail loudly, and a concrete artifact rejects any binding.
func TestBindErrors(t *testing.T) {
	c := workloads.VQEAnsatz(4, 1)
	skel := compileWith(t, c, network.TopoMesh, "")
	full := workloads.VQEAnsatzPoint(4, 1, 0)
	partial := map[string]float64{}
	for k, v := range full {
		partial[k] = v
	}
	delete(partial, "t0_0")
	if _, err := skel.BindParams(partial); err == nil {
		t.Error("missing parameter accepted")
	}
	unknown := map[string]float64{}
	for k, v := range full {
		unknown[k] = v
	}
	unknown["bogus"] = 1
	if _, err := skel.BindParams(unknown); err == nil {
		t.Error("unknown parameter accepted")
	}
	nan := map[string]float64{}
	for k, v := range full {
		nan[k] = v
	}
	nan["t0_0"] = math.NaN()
	if _, err := skel.BindParams(nan); err == nil {
		t.Error("NaN parameter accepted")
	}
	concrete := compileWith(t, workloads.GHZ(4), network.TopoMesh, "")
	if _, err := concrete.BindParams(map[string]float64{"x": 1}); err == nil {
		t.Error("binding a concrete artifact accepted")
	}
	if cp, err := concrete.BindParams(map[string]float64{}); err != nil || cp == nil {
		t.Errorf("empty binding of a concrete artifact rejected: %v", err)
	}
}

// TestCompiledParams: the artifact reports its symbol set sorted.
func TestCompiledParams(t *testing.T) {
	c := circuit.New(2)
	c.RZSym(1, "zz").RYSym(0, "aa").RZSym(1, "zz")
	skel := compileWith(t, c, network.TopoMesh, "")
	if got := skel.Params(); !reflect.DeepEqual(got, []string{"aa", "zz"}) {
		t.Fatalf("Params() = %v", got)
	}
}

// TestBindParamsAllocations holds BindParams on the two angle-sweep families
// BenchmarkBindParams times to the allocations it was measured to make per
// point: the artifact header and table index, two bookkeeping maps, and one
// copy per table that holds a slot. Programs are shared with the skeleton,
// so a bind that copied them would cost at least one more per controller.
func TestBindParamsAllocations(t *testing.T) {
	for _, tc := range []struct {
		name    string
		c       *circuit.Circuit
		binding map[string]float64
		ceiling float64
	}{
		{"vqe_n12x2", workloads.VQEAnsatz(12, 2), workloads.VQEAnsatzPoint(12, 2, 3), 22},
		{"qft_sweep_n16", workloads.QFTSweep(16), workloads.QFTSweepPoint(16, 3), 28},
	} {
		skel := compileWith(t, tc.c, network.TopoMesh, "")
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := skel.BindParams(tc.binding); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per point", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: BindParams allocates %.0f times per point, want at most %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}
