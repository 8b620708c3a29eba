package exp

import (
	"math"
	"strings"
	"testing"

	"dhisq/internal/sim"
)

func TestTable1MatchesPaper(t *testing.T) {
	res := Table1()
	if !res.AllMatch {
		t.Fatalf("resource model diverges from Table 1:\n%s", res.Render())
	}
}

func TestFig13ConstantDelta(t *testing.T) {
	res, err := Fig13SyncWaveforms()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deltas) != 3 {
		t.Fatalf("expected 3 inner-loop iterations, got %d deltas", len(res.Deltas))
	}
	if !res.DeltaConstant {
		t.Fatalf("sync pair drifted: deltas %v", res.Deltas)
	}
	// The deliberate trigger-delay compensation: readout commits 63 cycles
	// after its sync point, the control board 8 — constant 55-cycle offset.
	if res.Deltas[0] != 55 {
		t.Fatalf("delta = %d, want 55", res.Deltas[0])
	}
	// The control board's progress shifts with $1 (+40 cycles/iteration on
	// top of the fixed loop body) — the non-determinism the sync absorbs.
	if len(res.SweepDeltas) != 2 || res.SweepDeltas[1]-res.SweepDeltas[0] != 40 {
		t.Fatalf("period growth %v, want +40/iter", res.SweepDeltas)
	}
}

func TestFig15ScaledShape(t *testing.T) {
	res, err := Fig15Runtime(Fig15Options{ScaleDiv: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(res.Rows))
	}
	// Headline shape: BISP beats lock-step on average.
	if res.Average >= 1.0 {
		t.Fatalf("average normalized runtime %.3f, want < 1", res.Average)
	}
	for _, r := range res.Rows {
		if r.BISP <= 0 || r.Lockstep <= 0 {
			t.Fatalf("%s: degenerate makespans %d/%d", r.Name, r.BISP, r.Lockstep)
		}
		if r.Normalized <= 0.05 || r.Normalized > 3 {
			t.Fatalf("%s: implausible normalized runtime %.3f", r.Name, r.Normalized)
		}
	}
	if !strings.Contains(res.Render(), "avg") {
		t.Fatal("render missing average row")
	}
}

func TestFig16RatioShape(t *testing.T) {
	res, err := Fig16Fidelity(0, 0, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 10 {
		t.Fatalf("%d points, want 10", len(res.Points))
	}
	if res.BISPMakespan >= res.LockstepMakespan {
		t.Fatalf("BISP (%d) should beat lock-step (%d) on the all-feedback circuit",
			res.BISPMakespan, res.LockstepMakespan)
	}
	first := res.Points[0].Ratio
	for _, p := range res.Points {
		if p.LockstepInfid <= p.BISPInfid {
			t.Fatalf("T1=%v: no infidelity reduction", p.T1us)
		}
		if p.Ratio < 2 {
			t.Fatalf("T1=%v: reduction ratio %.2f too small", p.T1us, p.Ratio)
		}
		// The paper's ratio is roughly constant across the sweep.
		if math.Abs(p.Ratio-first)/first > 0.3 {
			t.Fatalf("ratio drifts: %.2f vs %.2f", p.Ratio, first)
		}
	}
}

func TestFig14DepthShape(t *testing.T) {
	res, err := Fig14LongRange([]int{2, 4, 8, 16}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic depth constant beyond the smallest distances; swap grows.
	d8, d16 := res.Points[2], res.Points[3]
	if d8.DynamicDepth != d16.DynamicDepth {
		t.Fatalf("dynamic depth not constant: %d vs %d", d8.DynamicDepth, d16.DynamicDepth)
	}
	if !(res.Points[0].SwapDepth < res.Points[1].SwapDepth &&
		res.Points[1].SwapDepth < res.Points[2].SwapDepth) {
		t.Fatal("swap depth not growing")
	}
}

func TestFig14MachineMakespans(t *testing.T) {
	res, err := Fig14LongRange([]int{4, 12}, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Through the full stack the dynamic construction's makespan grows only
	// mildly with distance (message latency), while swap routing pays the
	// full serial chain.
	growthDyn := float64(res.Points[1].DynamicMake) / float64(res.Points[0].DynamicMake)
	growthSwap := float64(res.Points[1].SwapMake) / float64(res.Points[0].SwapMake)
	if growthDyn >= growthSwap {
		t.Fatalf("dynamic growth %.2f should be below swap growth %.2f", growthDyn, growthSwap)
	}
}

func TestFig11Circle(t *testing.T) {
	res, err := Fig11DrawCircle(48, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 48 {
		t.Fatalf("%d IQ points, want 48", len(res.Points))
	}
	if math.Abs(res.Circle.R-1) > 0.15 {
		t.Fatalf("circle radius %.3f, want ~1", res.Circle.R)
	}
	if math.Hypot(res.Circle.X0, res.Circle.Y0) > 0.2 {
		t.Fatalf("circle center (%.3f, %.3f) far from origin", res.Circle.X0, res.Circle.Y0)
	}
	// The deviation from an ideal circle is the interference signature:
	// visible but small.
	if res.RMSE < 0.005 || res.RMSE > 0.2 {
		t.Fatalf("interference RMSE %.4f outside expected band", res.RMSE)
	}
}

func TestFig11Spectroscopy(t *testing.T) {
	res, err := Fig11Spectroscopy(41, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fit.X0-res.TrueF0) > 0.01 {
		t.Fatalf("resonance fit %.4f GHz, want %.4f±0.01", res.Fit.X0, res.TrueF0)
	}
}

func TestFig11Rabi(t *testing.T) {
	res, err := Fig11Rabi(33, 60, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.TruePi <= 0 {
		t.Fatal("bad reference pi amplitude")
	}
	if math.Abs(res.PiAmp-res.TruePi)/res.TruePi > 0.1 {
		t.Fatalf("pi amplitude fit %.4f, want %.4f±10%%", res.PiAmp, res.TruePi)
	}
}

func TestFig11T1(t *testing.T) {
	res, err := Fig11T1(21, 120, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 11(d): 9.9 µs with natural statistical fluctuation (the paper's
	// own cross-check differed by 3%: 9.9 vs 10.2 µs).
	if math.Abs(res.T1Us-res.TrueT1Us)/res.TrueT1Us > 0.25 {
		t.Fatalf("T1 fit %.2f µs, want %.2f±25%%", res.T1Us, res.TrueT1Us)
	}
}

func TestTableRenderer(t *testing.T) {
	s := Table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(s, "333") || !strings.Contains(s, "bb") {
		t.Fatalf("bad table:\n%s", s)
	}
}

func TestAblationSyncAdvance(t *testing.T) {
	rows, err := AblationSyncAdvance([]string{"qft_n30"}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Advancing the booking must never hurt, and on the sync-dense dynamic
	// QFT it must strictly win: the countdown overlaps deterministic work
	// instead of padding the timeline (§4.2 vs §2.1.3).
	if r.Advance >= r.NoAdvance {
		t.Fatalf("advance %d should beat no-advance %d", r.Advance, r.NoAdvance)
	}
	if r.Saved <= 0 {
		t.Fatalf("saved = %f", r.Saved)
	}
	if !strings.Contains(renderRows(rows, ablationCols), "qft_n30") {
		t.Fatal("render")
	}
}

func TestFabricSweepMonotoneAndAnchored(t *testing.T) {
	points, err := FabricSweep(FabricOptions{
		Qubits:         12,
		Seed:           3,
		Serializations: []sim.Time{0, 2, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads x 3 topologies x 3 serializations.
	if len(points) != 27 {
		t.Fatalf("got %d points, want 27", len(points))
	}
	requirePass(t, fabricGates(points))
	// Contention must actually bite somewhere: at least one enabled point
	// records stalls, or the sweep is measuring nothing.
	var sawStall bool
	for _, p := range points {
		if p.LinkSerialization > 0 && p.TotalStall > 0 {
			sawStall = true
		}
		if p.LinkSerialization == 0 && p.Makespan == 0 {
			t.Fatalf("%s/%s baseline has no makespan", p.Workload, p.Topology)
		}
	}
	if !sawStall {
		t.Fatal("no point recorded any stall cycles under finite bandwidth")
	}
	if out := renderRows(points, fabricCols); !strings.Contains(out, "torus") {
		t.Fatalf("render missing topology column:\n%s", out)
	}
}

// TestFabricGatesCatchRegression: a stall at the contention-free anchor
// and a stall that shrinks as bandwidth falls each turn their own gate red.
func TestFabricGatesCatchRegression(t *testing.T) {
	series := func(stalls ...int64) []FabricPoint {
		out := make([]FabricPoint, len(stalls))
		for i, s := range stalls {
			out[i] = FabricPoint{Workload: "ghz", Topology: "mesh", LinkSerialization: int64(i), Counters: Counters{TotalStall: s}}
		}
		return out
	}
	requirePass(t, fabricGates(series(0, 5, 5, 9)))
	requireFail(t, fabricGates(series(1, 5, 9)), "anchor_stall_free")
	requireFail(t, fabricGates(series(0, 9, 5)), "stall_monotone")
}

// requirePass fails the test on any red gate.
func requirePass(t *testing.T, gates []Gate) {
	t.Helper()
	if len(gates) == 0 {
		t.Fatal("no gates to hold the rows to")
	}
	for _, g := range gates {
		if !g.Pass {
			t.Errorf("%v", g)
		}
	}
}

// requireFail requires exactly the named gates to be red.
func requireFail(t *testing.T, gates []Gate, want ...string) {
	t.Helper()
	var red []string
	for _, g := range gates {
		if !g.Pass {
			red = append(red, g.Name)
		}
	}
	if strings.Join(red, ",") != strings.Join(want, ",") {
		t.Errorf("red gates %v, want %v", red, want)
	}
}

// Every experiment has a distinct name, and a gate says what it compared.
func TestRegistryAndGateText(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.Name == "" || e.Run == nil || seen[e.Name] {
			t.Fatalf("registry entry %q is empty or repeated", e.Name)
		}
		seen[e.Name] = true
	}
	g := NewGate("hotspot_stall", 9, "<=", 4)
	if g.Pass || !strings.Contains(g.String(), "hotspot_stall") || !strings.Contains(g.String(), "9 <= 4") || !strings.Contains(g.String(), "FAIL") {
		t.Fatalf("failing gate renders as %q", g)
	}
	for _, op := range []string{">=", "<=", "<", "=="} {
		if ok := NewGate("g", 1, op, 1).Pass; ok != (op != "<") {
			t.Errorf("1 %s 1 = %v", op, ok)
		}
	}
}

func TestFabricTreeCongestsHarderThanMesh(t *testing.T) {
	// The headline architecture result: pushing all traffic through the
	// router tree (no mesh) must congest at least as much as the hybrid
	// topology at equal bandwidth, for every workload.
	points, err := FabricSweep(FabricOptions{
		Qubits:         12,
		Seed:           3,
		Serializations: []sim.Time{0, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	stall := map[[2]string]int64{}
	for _, p := range points {
		if p.LinkSerialization == 4 {
			stall[[2]string{p.Workload, p.Topology}] = p.TotalStall
		}
	}
	for _, w := range FabricSweepWorkloads() {
		if stall[[2]string{w, "tree"}] < stall[[2]string{w, "mesh"}] {
			t.Fatalf("%s: tree stalls (%d) below mesh stalls (%d)",
				w, stall[[2]string{w, "tree"}], stall[[2]string{w, "mesh"}])
		}
	}
}
