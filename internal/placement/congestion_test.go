package placement

import (
	"reflect"
	"testing"

	"dhisq/internal/network"
)

func congTopo(t *testing.T, n int) *network.Topology {
	t.Helper()
	cfg := network.DefaultConfig(n)
	topo, err := network.NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestCongestionPolicyRegistered: "congestion" resolves through the
// registry and, fed no measurement (placement by name alone), is the
// interaction placement — the documented cold-start behavior.
func TestCongestionPolicyRegistered(t *testing.T) {
	c := hotspot(9)
	topo := congTopo(t, 9)
	got, err := Place("congestion", c, topo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Place("interaction", c, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cold congestion placement %v != interaction %v", got, want)
	}
}

// TestCongestionCandidatesShape: candidates are deduped, deterministic,
// include the interaction placement first, and every entry is a valid
// permutation of controllers.
func TestCongestionCandidatesShape(t *testing.T) {
	c := hotspot(9)
	topo := congTopo(t, 9)
	loads := []network.LinkStat{{From: 2, To: 3, Stall: 40}, {From: 3, To: 2, Stall: 12}}
	cands, err := CongestionCandidates(c, topo, nil, loads)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	inter := interaction(c, topo)
	if !reflect.DeepEqual(cands[0], inter) {
		t.Fatalf("candidate 0 %v is not the interaction placement %v", cands[0], inter)
	}
	for i, m := range cands {
		if len(m) != c.NumQubits {
			t.Fatalf("candidate %d has length %d", i, len(m))
		}
		seen := map[int]bool{}
		for _, ctrl := range m {
			if ctrl < 0 || ctrl >= topo.N || seen[ctrl] {
				t.Fatalf("candidate %d is not a valid placement: %v", i, m)
			}
			seen[ctrl] = true
		}
		for j := 0; j < i; j++ {
			if reflect.DeepEqual(cands[j], m) {
				t.Fatalf("candidates %d and %d are duplicates: %v", j, i, m)
			}
		}
	}
	again, err := CongestionCandidates(c, topo, nil, loads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cands, again) {
		t.Fatal("candidate family not deterministic")
	}
}

// TestCongestionPlaceNoSignalReducesToInteraction: with no link loads the
// stall-weighted placer must reproduce the greedy interaction mapping
// exactly (every edge scales by the same constant), at every feedback gain,
// so the candidate family holds only the interaction and plain greedy
// placements.
func TestCongestionPlaceNoSignalReducesToInteraction(t *testing.T) {
	c := hotspot(12)
	topo := congTopo(t, 12)
	greedy := greedyPlace(c.NumQubits, interactionWeights(c), topo)
	for _, lambda := range []int64{1, 2, 4, 8} {
		got := greedyPlace(c.NumQubits, congestionWeights(c, topo, nil, nil, lambda), topo)
		if !reflect.DeepEqual(got, greedy) {
			t.Fatalf("no-signal placement at gain %d %v != greedy interaction %v", lambda, got, greedy)
		}
	}
	inter := interaction(c, topo)
	quiet, err := CongestionCandidates(c, topo, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{inter}
	if !reflect.DeepEqual(greedy, inter) {
		want = append(want, greedy)
	}
	if !reflect.DeepEqual(quiet, want) {
		t.Fatalf("no-signal candidates %v, want the interaction and plain greedy placements %v", quiet, want)
	}
}

// TestStallPressureChargesBothEndpoints: a link's stall must raise the
// pressure of both its endpoints and ignore out-of-range controllers.
func TestStallPressureChargesBothEndpoints(t *testing.T) {
	press := stallPressure(4, []network.LinkStat{
		{From: 1, To: 2, Stall: 10},
		{From: 2, To: 1, Stall: 4},
		{From: 9, To: 0, Stall: 7},  // From out of range: only To charged
		{From: 3, To: 3, Stall: -5}, // non-positive stall ignored
	})
	want := []int64{7, 14, 14, 0}
	if !reflect.DeepEqual(press, want) {
		t.Fatalf("pressure = %v, want %v", press, want)
	}
}
