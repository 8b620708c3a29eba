package compiler

import (
	"reflect"
	"testing"

	"dhisq/internal/network"
	"dhisq/internal/registry"
	"dhisq/internal/workloads"
)

// TestScheduleRegistry pins the registry surface: stable names, "" →
// DefaultSchedule, every registered name valid, unknown names rejected
// with the valid set in the message.
func TestScheduleRegistry(t *testing.T) {
	want := []string{"fixed", "padded"}
	if got := registry.Names(schedules, scheduleName); !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule names = %v, want %v", got, want)
	}
	for _, name := range append(want, "") {
		row, err := lookupSchedule(name)
		if err != nil {
			t.Fatalf("lookupSchedule(%q): %v", name, err)
		}
		if name == "" && row.name != DefaultSchedule {
			t.Fatalf("lookupSchedule(\"\") resolved to %q, want %q", row.name, DefaultSchedule)
		}
		if err := ValidSchedule(name); err != nil {
			t.Fatalf("ValidSchedule(%q): %v", name, err)
		}
	}
	if err := ValidSchedule("bogus"); err == nil || err.Error() != `unknown schedule policy "bogus" (want fixed, padded)` {
		t.Fatalf("ValidSchedule(bogus) = %v", err)
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
