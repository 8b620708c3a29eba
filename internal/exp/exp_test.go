package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dhisq/internal/fit"
	"dhisq/internal/network"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

func TestFig14MachineMakespans(t *testing.T) {
	res, err := Fig14LongRange([]int{4, 12}, 2)
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

// Every paper figure runs through the registry and holds all its gates, at
// default flags except two run at ÷16 (cmd/dhisq-bench's
// TestCommittedBenchRowsReproduce runs both at -scale 1). fig15 takes
// seconds at -scale 1; every one of its gates holds at ÷16 too, though
// qft_n30 and qft_n100 are one 8-qubit circuit there, counted twice in the
// mean. At ÷16 the ablation's capped divisor must keep its two rows apart.
func TestPaperFiguresHoldTheirGates(t *testing.T) {
	scale := map[string]int{"table1": 1, "fig11": 1, "fig13": 1, "fig14": 1, "fig15": 16, "fig16": 1, "ablation": 16}
	for _, e := range Registry() {
		div, ok := scale[e.Name]
		if !ok {
			continue
		}
		rep, err := e.Run(Args{Seed: 1, Scale: div})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if rep.Text == "" {
			t.Errorf("%s printed nothing", e.Name)
		}
		requirePass(t, rep.Gates)
	}
}

// On the sync-dense dynamic QFT advancing the booking strictly wins: the
// countdown overlaps deterministic work instead of padding the timeline.
func TestAblationSyncAdvance(t *testing.T) {
	rows, err := AblationSyncAdvance(nil, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Advance >= r.NoAdvance {
			t.Errorf("%s on %d qubits: advance %d should beat no-advance %d", r.Name, r.Qubits, r.Advance, r.NoAdvance)
		}
	}
}

// Fig15Runtime runs the seed it is given, 0 included: its rows are
// fig15One's at that seed, and on bv_n1000 ÷16 seeds 0 and 1 give
// different makespans, so a clamp of one onto the other shows.
func TestFig15RunsSeedZero(t *testing.T) {
	b, err := workloads.BuildScaled("bv_n1000", 16)
	if err != nil {
		t.Fatal(err)
	}
	bisp := map[int64]sim.Time{}
	for _, seed := range []int64{0, 1} {
		got, err := Fig15Runtime(Fig15Options{ScaleDiv: 16, Seed: seed, Names: []string{b.Name}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fig15One(b, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, []Fig15Row{want}) {
			t.Fatalf("seed %d: Fig15Runtime rows %+v, want fig15One's %+v", seed, got.Rows, want)
		}
		bisp[seed] = want.BISP
	}
	if bisp[0] == bisp[1] {
		t.Fatalf("seeds 0 and 1 both read BISP %d: the test cannot tell them apart", bisp[0])
	}
}

// A shot that breaks the timing invariants fails the paper figures' one
// checked run with all four counts named; the same benchmark on the default
// fabric passes it.
func TestRunCheckedNamesEveryInvariant(t *testing.T) {
	b, err := workloads.BuildScaled("qft_n30", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runChecked(b, cellConfig(b.Qubits, 1, 0)); err != nil {
		t.Fatal(err)
	}
	cfg := cellConfig(b.Qubits, 1, 0)
	cfg.Net.Topology, cfg.Net.LinkSerialization = network.TopoTree, 8
	_, err = runChecked(b, cfg)
	if err == nil {
		t.Fatal("a congested tree broke no invariant")
	}
	for _, want := range []string{"misalignments", "violations", "overlaps", "inversions"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q does not name the %s", err, want)
		}
	}
}

// Each paper figure's gate function turns exactly the gate red whose claim
// a hand-built row breaks.
func TestPaperGatesCatchRegression(t *testing.T) {
	requireFail(t, table1Gates([]Table1Row{{MatchesPaper: true}, {}, {MatchesPaper: true}}), "rows_match")
	requireFail(t, fig11Gates(Fig11SpectroscopyResult{Fit: fit.Lorentzian{X0: 4.65}}, Fig11T1Result{T1Us: 9.9, TrueT1Us: 9.9}), "resonance_ghz")
	requireFail(t, fig13Gates(Fig13Result{Deltas: []int64{55, 56, 55}}), "delta_55")
	fig14 := []Fig14Point{
		{Distance: 4, DynamicDepth: 200, SwapDepth: 120, DynamicMake: 300, SwapMake: 150},
		{Distance: 8, DynamicDepth: 200, SwapDepth: 160, DynamicMake: 370, SwapMake: 200},
		{Distance: 16, DynamicDepth: 210, SwapDepth: 315, DynamicMake: 350, SwapMake: 350},
	}
	requireFail(t, fig14Gates(fig14), "dynamic_depth_flat")
	hub := map[string]float64{"hub": 0.8}
	below := Fig15Result{Rows: []Fig15Row{{BISP: 90, Floor: 100}}, Mean: hub}
	requireFail(t, fig15Gates(below), "bisp_below_floor")
	lockBelow := Fig15Result{Rows: []Fig15Row{{BISP: 110, Floor: 100, Lockstep: []Fig15Cell{{"hub", 120, 0.92}, {"favorable", 95, 1.16}}}}, Mean: hub}
	requireFail(t, fig15Gates(lockBelow), "lockstep_below_floor")
	drift := Fig16Result{BISPMakespan: 500, LockstepMakespan: 1700, Points: []Fig16Point{{Ratio: 3}, {Ratio: 4.2}}}
	requireFail(t, fig16Gates(drift), "reduction_flat")
	twice := []AblationRow{{Qubits: 8, Advance: 819, NoAdvance: 835}, {Qubits: 8, Advance: 819, NoAdvance: 835}}
	requireFail(t, ablationGates(twice), "distinct_circuits")
}

func TestFabricSweepMonotoneAndAnchored(t *testing.T) {
	points, err := FabricSweep(3)
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads x 3 topologies x 6 serializations.
	if len(points) != 54 {
		t.Fatalf("got %d points, want 54", len(points))
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
	points, err := FabricSweep(3)
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
