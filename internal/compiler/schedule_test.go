package compiler

import (
	"reflect"
	"testing"

	"dhisq/internal/network"
	"dhisq/internal/workloads"
)

// TestScheduleRegistry pins the registry surface: stable names, "" →
// DefaultSchedule, every registered name valid, unknown names rejected
// with the valid set in the message.
func TestScheduleRegistry(t *testing.T) {
	want := []string{"fixed", "padded"}
	if got := ScheduleNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ScheduleNames() = %v, want %v", got, want)
	}
	for _, name := range append(want, "") {
		p, err := GetSchedule(name)
		if err != nil {
			t.Fatalf("GetSchedule(%q): %v", name, err)
		}
		if name == "" && p.Name() != DefaultSchedule {
			t.Fatalf("GetSchedule(\"\") resolved to %q, want %q", p.Name(), DefaultSchedule)
		}
		if err := ValidSchedule(name); err != nil {
			t.Fatalf("ValidSchedule(%q): %v", name, err)
		}
	}
	if _, err := GetSchedule("bogus"); err == nil {
		t.Fatal("unknown schedule policy accepted")
	}
	if err := ValidSchedule("bogus"); err == nil {
		t.Fatal("ValidSchedule accepted unknown policy")
	}
}

// TestFixedPolicyMatchesDefaultBytes: naming "fixed" explicitly must
// produce byte-identical artifacts to the empty default — the same
// ""-vs-named redundancy contract the placement registry has.
func TestFixedPolicyMatchesDefaultBytes(t *testing.T) {
	for _, tc := range equivCases() {
		c := tc.build()
		topo, fab := fabricFor(t, c.NumQubits, network.TopoMesh)
		opt := DefaultOptions(topo.Root, topo.N)
		want, err := Compile(c, nil, fab, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Schedule = "fixed"
		got, err := Compile(tc.build(), nil, fab, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameArtifact(t, tc.name+"/fixed-vs-default", got, want)
	}
}

// TestUnknownSchedulePolicyFailsCompile: an unknown schedule name must
// fail the pipeline with the registry's error, not silently fall back.
func TestUnknownSchedulePolicyFailsCompile(t *testing.T) {
	c := workloads.GHZ(4)
	topo, fab := fabricFor(t, 4, network.TopoMesh)
	opt := DefaultOptions(topo.Root, topo.N)
	opt.Schedule = "bogus"
	if _, err := Compile(c, nil, fab, opt); err == nil {
		t.Fatal("unknown schedule policy compiled")
	}
}
