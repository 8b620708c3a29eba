package exp

import (
	"strings"
	"testing"
)

// TestFeedbackSweepImproves runs the sweep end to end and holds it to the
// headline claims: a cold and a replaced cell for every workload, sane
// fields, no workload regressing and the hotspot improving strictly.
func TestFeedbackSweepImproves(t *testing.T) {
	points, err := FeedbackSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(FeedbackWorkloads()) * 2
	if len(points) != wantCells {
		t.Fatalf("got %d points, want %d", len(points), wantCells)
	}
	for _, p := range points {
		if p.Makespan <= 0 {
			t.Errorf("%s/%s: makespan %d", p.Workload, p.Phase, p.Makespan)
		}
		if p.LinkSerialization != 4 {
			t.Errorf("%s/%s: serialization %d, want 4", p.Workload, p.Phase, p.LinkSerialization)
		}
		if len(p.Mapping) != 16 {
			t.Errorf("%s/%s: mapping length %d, want 16", p.Workload, p.Phase, len(p.Mapping))
		}
		if p.Phase == "cold" && p.TotalStall == 0 {
			t.Errorf("%s cold run queued nowhere", p.Workload)
		}
	}
	requirePass(t, feedbackGates(points))
	table := renderRows(points, feedbackCols)
	for _, w := range FeedbackWorkloads() {
		if !strings.Contains(table, w) {
			t.Fatalf("rendered table is missing workload %q:\n%s", w, table)
		}
	}
}

// TestCheckFeedbackImprovesCatchesRegression: doctored sweeps — a
// makespan regression anywhere, a flat hotspot, or a missing phase — must
// each turn their own gate red, and a lower stall rescues none of them.
func TestCheckFeedbackImprovesCatchesRegression(t *testing.T) {
	mk := func(hotCold, hotRep, qftCold, qftRep int64) []FeedbackPoint {
		return []FeedbackPoint{
			{Workload: "hotspot", Phase: "cold", Counters: Counters{Makespan: hotCold, TotalStall: 90}},
			{Workload: "hotspot", Phase: "replaced", Counters: Counters{Makespan: hotRep, TotalStall: 10}},
			{Workload: "qft", Phase: "cold", Counters: Counters{Makespan: qftCold, TotalStall: 90}},
			{Workload: "qft", Phase: "replaced", Counters: Counters{Makespan: qftRep, TotalStall: 10}},
			{Workload: "bv", Phase: "cold", Counters: Counters{Makespan: 5}},
			{Workload: "bv", Phase: "replaced", Counters: Counters{Makespan: 5}},
		}
	}
	requirePass(t, feedbackGates(mk(100, 50, 40, 40)))
	requireFail(t, feedbackGates(mk(100, 50, 40, 60)), "no_regression")
	requireFail(t, feedbackGates(mk(100, 100, 40, 40)), "hotspot_strict")
	requireFail(t, feedbackGates(mk(100, 50, 40, 40)[:5]), "no_regression")
}
