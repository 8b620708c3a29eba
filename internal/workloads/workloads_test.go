package workloads

import (
	"math"
	"math/rand"
	"testing"

	"dhisq/internal/circuit"
)

func TestCCXTruthTable(t *testing.T) {
	for in := 0; in < 8; in++ {
		c := circuit.New(3)
		for q := 0; q < 3; q++ {
			if in>>uint(q)&1 == 1 {
				c.X(q)
			}
		}
		CCX(c, 0, 1, 2)
		for q := 0; q < 3; q++ {
			c.MeasureInto(q, q)
		}
		_, bits, err := c.RunStateVector(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		wantT := in >> 2 & 1
		if in&1 == 1 && in>>1&1 == 1 {
			wantT ^= 1
		}
		if bits[0] != in&1 || bits[1] != in>>1&1 || bits[2] != wantT {
			t.Fatalf("input %03b: got %v, want target %d", in, bits, wantT)
		}
	}
}

func TestCuccaroAdderComputesSums(t *testing.T) {
	cases := []struct {
		k    int
		a, b uint64
	}{
		{2, 1, 2}, {2, 3, 3}, {3, 5, 6}, {3, 7, 7}, {4, 9, 13},
	}
	for _, tc := range cases {
		c := CuccaroAdder(tc.k, tc.a, tc.b)
		_, bits, err := c.RunStateVector(rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		got := uint64(0)
		for i := 0; i <= tc.k; i++ {
			got |= uint64(bits[i]) << uint(i)
		}
		if want := tc.a + tc.b; got != want {
			t.Fatalf("k=%d: %d + %d = %d, want %d", tc.k, tc.a, tc.b, got, want)
		}
	}
}

func TestCuccaroAdderDynamicStillAdds(t *testing.T) {
	// The full pipeline the paper benchmarks: adder -> line embedding with
	// dynamic long-range gates -> same arithmetic result.
	lc := CuccaroAdder(2, 2, 3)
	pc, err := Dynamic(lc)
	if err != nil {
		t.Fatal(err)
	}
	_, bits, err := pc.RunStateVector(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	got := bits[0] | bits[1]<<1 | bits[2]<<2
	if got != 5 {
		t.Fatalf("dynamic adder: 2+3 = %d", got)
	}
}

func TestBVRecoversSecret(t *testing.T) {
	secret := func(i int) bool { return i%3 == 0 }
	c := BV(9, secret)
	_, bits, err := c.RunStateVector(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := 0
		if secret(i) {
			want = 1
		}
		if bits[i] != want {
			t.Fatalf("bit %d = %d, want %d", i, bits[i], want)
		}
	}
}

func TestBVDynamicRecoversSecret(t *testing.T) {
	c := BV(5, AlternatingSecret)
	pc, err := Dynamic(c)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		_, bits, err := pc.RunStateVector(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			want := 0
			if AlternatingSecret(i) {
				want = 1
			}
			if bits[i] != want {
				t.Fatalf("seed %d: bit %d = %d, want %d", seed, i, bits[i], want)
			}
		}
	}
}

func TestWStateDistribution(t *testing.T) {
	const n = 5
	c := WState(n)
	// Strip the measurements to inspect the state directly.
	c.Ops = c.Ops[:len(c.Ops)-n]
	st, _, err := c.RunStateVector(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	probs := st.Probabilities()
	for idx, p := range probs {
		oneHot := idx != 0 && idx&(idx-1) == 0
		want := 0.0
		if oneHot {
			want = 1.0 / n
		}
		if math.Abs(p-want) > 1e-9 {
			t.Fatalf("P[%05b] = %g, want %g", idx, p, want)
		}
	}
}

func TestQFTUniformOnZero(t *testing.T) {
	const n = 4
	c := QFT(n)
	c.Ops = c.Ops[:len(c.Ops)-n] // drop measurements
	st, _, err := c.RunStateVector(rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	for idx, p := range st.Probabilities() {
		if math.Abs(p-1.0/(1<<n)) > 1e-9 {
			t.Fatalf("QFT|0>: P[%d] = %g", idx, p)
		}
	}
}

func TestGHZCorrelations(t *testing.T) {
	c := GHZ(10)
	for seed := int64(0); seed < 10; seed++ {
		_, bits, err := c.RunStabilizer(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 10; i++ {
			if bits[i] != bits[0] {
				t.Fatalf("GHZ broken at %d: %v", i, bits)
			}
		}
	}
}

func TestLogicalTBuildsAndValidates(t *testing.T) {
	cfg := DefaultLogicalTConfig(120)
	c := LogicalT(cfg)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	st := c.CountStats()
	if st.Measurements == 0 || st.Feedforward == 0 || st.TwoQubit == 0 {
		t.Fatalf("degenerate logical-T circuit: %+v", st)
	}
	// It must be stabilizer-simulable (all-Clifford including conditioned S).
	if !c.IsClifford() {
		t.Fatal("logical-T circuit should be Clifford")
	}
	if _, _, err := c.RunStabilizer(rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
}

func TestLogicalTGridLocality(t *testing.T) {
	cfg := DefaultLogicalTConfig(120)
	c := LogicalT(cfg)
	w := cfg.GridW()
	for i, op := range c.Ops {
		if !op.Kind.IsTwoQubit() {
			continue
		}
		a, b := op.Qubits[0], op.Qubits[1]
		dx := a%w - b%w
		dy := a/w - b/w
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy != 1 {
			t.Fatalf("op %d (%s): grid distance %d", i, op, dx+dy)
		}
	}
}

func TestDefaultLogicalTConfigSizes(t *testing.T) {
	for _, n := range []int{432, 864} {
		cfg := DefaultLogicalTConfig(n)
		used := cfg.GridW() * cfg.GridH()
		if used > n {
			t.Fatalf("n=%d: grid %dx%d exceeds budget", n, cfg.GridW(), cfg.GridH())
		}
		if float64(used) < 0.85*float64(n) {
			t.Fatalf("n=%d: only %d qubits used", n, used)
		}
	}
}

func TestFig15SuiteBuildsScaled(t *testing.T) { fig15SuiteBuilds(t, 16) }

// TestFig15SuiteBuildsAtPaperScale builds (never runs) every Fig. 15
// workload at the size its name states — what `dhisq-bench -exp fig15`
// compiles with default flags. qft_n200 and qft_n300 used to fail here with
// a non-finite CP angle: QFT's divisor was 1<<(j-i). The package's only
// other shift, the adder's operand mask, clamps its count at 60.
func TestFig15SuiteBuildsAtPaperScale(t *testing.T) { fig15SuiteBuilds(t, 1) }

func fig15SuiteBuilds(t *testing.T, div int) {
	for _, name := range Fig15Names() {
		b, err := BuildScaled(name, div)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Circuit.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.MeshW*b.MeshH < b.Qubits {
			t.Fatalf("%s: mesh %dx%d too small for %d qubits", name, b.MeshW, b.MeshH, b.Qubits)
		}
		if b.Mapping != nil {
			seen := map[int]bool{}
			for _, m := range b.Mapping {
				if m < 0 || m >= b.MeshW*b.MeshH || seen[m] {
					t.Fatalf("%s: bad mapping", name)
				}
				seen[m] = true
			}
		}
		st := b.Circuit.CountStats()
		if st.Measurements == 0 {
			t.Fatalf("%s: no measurements", name)
		}
	}
}

func TestFig15FullSizesMatchNames(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size benchmark construction")
	}
	for _, name := range []string{"qft_n30", "bv_n400", "logical_t_n432"} {
		b, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{"qft_n30": 30, "bv_n400": 400, "logical_t_n432": 432}[name]
		if b.Qubits != want {
			t.Fatalf("%s: %d qubits", name, b.Qubits)
		}
		if err := b.Circuit.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDynamicConversionAddsFeedback(t *testing.T) {
	// The point of the benchmark suite: static circuits gain feed-forward
	// operations when converted (§6.4.2).
	static := QFT(6)
	if static.CountStats().Feedforward != 0 {
		t.Fatal("static QFT should have no feedback")
	}
	dyn, err := Dynamic(static)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.CountStats().Feedforward == 0 {
		t.Fatal("dynamic QFT should have feedback operations")
	}
}

func TestWStateTreeDistribution(t *testing.T) {
	for _, n := range []int{4, 5, 7, 8} {
		c := WStateTree(n)
		c.Ops = c.Ops[:len(c.Ops)-n] // strip measurements
		st, _, err := c.RunStateVector(rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		for idx, p := range st.Probabilities() {
			oneHot := idx != 0 && idx&(idx-1) == 0
			want := 0.0
			if oneHot {
				want = 1.0 / float64(n)
			}
			if math.Abs(p-want) > 1e-9 {
				t.Fatalf("n=%d: P[%b] = %g, want %g", n, idx, p, want)
			}
		}
	}
}

func TestWStateTreeHasLongRangeGates(t *testing.T) {
	c := WStateTree(16)
	far := 0
	for _, op := range c.Ops {
		if op.Kind == circuit.CNOT {
			d := op.Qubits[0] - op.Qubits[1]
			if d < 0 {
				d = -d
			}
			if d > 1 {
				far++
			}
		}
	}
	if far == 0 {
		t.Fatal("tree W-state should contain long-range CNOTs")
	}
}

func TestVQEAnsatzAndQFTSweepSkeletons(t *testing.T) {
	vqe := VQEAnsatz(6, 2)
	if err := vqe.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(vqe.UnboundParams()); got != 12 {
		t.Fatalf("VQEAnsatz(6,2) has %d params, want 12", got)
	}
	p0, p1 := VQEAnsatzPoint(6, 2, 0), VQEAnsatzPoint(6, 2, 1)
	if len(p0) != 12 || len(p1) != 12 {
		t.Fatalf("point sizes %d/%d, want 12", len(p0), len(p1))
	}
	same := true
	for k, v := range p0 {
		if v < 0 || v >= 2*math.Pi {
			t.Fatalf("angle %s=%v outside [0, 2pi)", k, v)
		}
		if p1[k] != v {
			same = false
		}
	}
	if same {
		t.Fatal("consecutive sweep points coincide")
	}
	if _, err := vqe.Bind(p0); err != nil {
		t.Fatal(err)
	}

	qs := QFTSweep(8)
	if err := qs.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(qs.UnboundParams()); got != 8 {
		t.Fatalf("QFTSweep(8) has %d params, want 8", got)
	}
	if _, err := qs.Bind(QFTSweepPoint(8, 3)); err != nil {
		t.Fatal(err)
	}
}
