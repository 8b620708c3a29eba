package placement_test

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/placement"
	"dhisq/internal/service"
	"dhisq/internal/workloads"
)

// TestRegistrySurfacePinned holds what the placement registry answers
// from outside: the names in order, the admission error for an unknown
// placement (which lists the names in order), and the mapping every name
// compiles to on one and two chips. The literals were taken from the
// interface-per-policy registries; any rewrite of the registries must
// reproduce them unedited. They were edited once, when the placement
// registry's fourth name — an alias of interaction that only the
// service's deleted re-place loop gave a meaning — was deleted with it,
// and again when rowmajor went: it compiled identity's programs under an
// explicit permutation, and its entries were identity's mapping spelt out.
// The unknown-schedule row went with the schedule registry, which became
// the ablation's Padded flag.
func TestRegistrySurfacePinned(t *testing.T) {
	if got, want := placement.Names(), []string{"identity", "interaction"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("placement.Names() = %v, want %v", got, want)
	}
	for _, name := range []string{"", "identity", "interaction"} {
		if err := placement.Valid(name); err != nil {
			t.Errorf("placement.Valid(%q): %v", name, err)
		}
	}

	const want = `unknown placement policy "bogus" (want identity, interaction)`
	_, err := service.Resolve(service.Request{Circuit: workloads.GHZ(4), Shots: 1, Placement: "bogus"})
	if err == nil || err.Error() != want {
		t.Errorf("service.Resolve(placement bogus) error = %v, want %q", err, want)
	}

	hotspotChips := []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 5, 10}
	blocks16 := []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 8, 17}
	for _, tc := range []struct {
		name  string
		c     *circuit.Circuit
		chips int
		want  map[string][]int // identity, interaction
	}{
		{"hotspot", star(9), 1, map[string][]int{
			"identity":    nil,
			"interaction": {1, 3, 5, 7, 0, 2, 6, 8, 4},
		}},
		{"hotspot", star(9), 2, map[string][]int{
			"identity":    hotspotChips,
			"interaction": {0, 1, 2, 3, 6, 7, 8, 9, 4, 5, 10},
		}},
		{"qft", workloads.QFT(16), 1, map[string][]int{
			"identity":    nil,
			"interaction": {5, 1, 0, 4, 2, 6, 9, 8, 10, 7, 3, 11, 13, 14, 12, 15},
		}},
		{"qft", workloads.QFT(16), 2, map[string][]int{
			"identity": blocks16, "interaction": blocks16,
		}},
		{"bv", workloads.BV(16, workloads.AlternatingSecret), 1, map[string][]int{
			"identity":    nil,
			"interaction": {1, 10, 4, 11, 6, 13, 9, 14, 0, 3, 2, 12, 7, 15, 8, 5},
		}},
		{"bv", workloads.BV(16, workloads.AlternatingSecret), 2, map[string][]int{
			"identity":    blocks16,
			"interaction": {0, 9, 1, 10, 2, 11, 3, 12, 4, 13, 5, 14, 6, 15, 16, 7, 8, 17},
		}},
	} {
		tc.want[""] = tc.want["identity"]
		for name, want := range tc.want {
			cfg := machine.DefaultConfig(tc.c.NumQubits)
			cfg.Placement, cfg.Chips = name, tc.chips
			cp, err := machine.CompileUncached(tc.c, nil, cfg)
			if err != nil {
				t.Fatalf("%s chips=%d placement=%q: %v", tc.name, tc.chips, name, err)
			}
			if !reflect.DeepEqual(cp.Mapping, want) {
				t.Errorf("%s chips=%d placement=%q: mapping %v, want %v", tc.name, tc.chips, name, cp.Mapping, want)
			}
		}
	}
}

// star is the hotspot workload of the placement experiments: three rounds
// of CNOTs from every data qubit into the last qubit, then full measurement.
func star(n int) *circuit.Circuit {
	c := circuit.New(n)
	hub := n - 1
	for round := 0; round < 3; round++ {
		for q := 0; q < n-1; q++ {
			c.CNOT(q, hub)
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}
