package exp

import "testing"

// TestPlacementSweepImproves runs the (small) sweep end to end and holds
// it to the headline claims: valid cells for every workload × policy, the
// hotspot never worse under the interaction placer, and a strict
// improvement somewhere.
func TestPlacementSweepImproves(t *testing.T) {
	points, err := PlacementSweep(PlacementOptions{Qubits: 12, Seed: 1, LinkBW: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(PlacementSweepWorkloads()) * 2
	if len(points) != wantCells {
		t.Fatalf("got %d points, want %d", len(points), wantCells)
	}
	for _, p := range points {
		if p.Makespan <= 0 {
			t.Errorf("%s/%s: makespan %d", p.Workload, p.Policy, p.Makespan)
		}
		if p.LinkSerialization != 4 {
			t.Errorf("%s/%s: serialization %d, want 4", p.Workload, p.Policy, p.LinkSerialization)
		}
	}
	requirePass(t, placementGates(points))
}

// TestPlacementSweepRejectsUnknownPolicy: bad policy names fail before
// any machine is built.
func TestPlacementSweepRejectsUnknownPolicy(t *testing.T) {
	if _, err := PlacementSweep(PlacementOptions{Qubits: 4, Policies: []string{"bogus"}}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestCheckPlacementImprovesCatchesRegression: a doctored sweep where the
// interaction placer lost on the hotspot turns that clause's gate red, a
// sweep with no strict win turns strict_improvement red, and a sweep
// without both policies has no gates at all.
func TestCheckPlacementImprovesCatchesRegression(t *testing.T) {
	pair := func(stall, makespan int64) []PlacementPoint {
		return []PlacementPoint{
			{Workload: "hotspot", Policy: "rowmajor", Counters: Counters{TotalStall: 10, Makespan: 100}},
			{Workload: "hotspot", Policy: "interaction", Counters: Counters{TotalStall: stall, Makespan: makespan}},
		}
	}
	requirePass(t, placementGates(pair(5, 100)))
	requireFail(t, placementGates(pair(50, 90)), "hotspot_stall")
	requireFail(t, placementGates(pair(5, 120)), "hotspot_makespan")
	requireFail(t, placementGates(pair(10, 100)), "strict_improvement")
	if gates := placementGates(pair(5, 100)[:1]); gates != nil {
		t.Fatalf("a single-policy sweep has nothing to compare, got %v", gates)
	}
}
