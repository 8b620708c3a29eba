package compiler

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/isa"
	"dhisq/internal/sim"
)

// fixedWindows is a Windows stub with constant latencies.
type fixedWindows struct {
	nearby, region sim.Time
}

func (f fixedWindows) NearbyWindow(src, dst int) sim.Time    { return f.nearby }
func (f fixedWindows) RegionWindow(src, router int) sim.Time { return f.region }

func opts(controllers int) Options {
	o := DefaultOptions(controllers, controllers) // root address unused by stub
	o.InitialBarrier = false
	return o
}

func countOp(p *isa.Program, op isa.Op) int {
	n := 0
	for _, in := range p.Instrs {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestCompileSingleQubitGate(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	cp, err := Compile(c, nil, fixedWindows{2, 10}, opts(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := countOp(cp.Programs[0], isa.OpCWII); got != 1 {
		t.Fatalf("controller 0 cw count = %d", got)
	}
	if got := countOp(cp.Programs[1], isa.OpCWII); got != 0 {
		t.Fatalf("controller 1 should be idle, cw count = %d", got)
	}
	// Every program halts.
	for i, p := range cp.Programs {
		if p.Instrs[p.Len()-1].Op != isa.OpHALT {
			t.Fatalf("program %d missing halt", i)
		}
	}
	if len(cp.Tables[0]) != 1 {
		t.Fatalf("table size = %d", len(cp.Tables[0]))
	}
}

func TestCompileTwoQubitGateEmitsPairedSyncs(t *testing.T) {
	c := circuit.New(2)
	c.CNOT(0, 1)
	cp, err := Compile(c, nil, fixedWindows{4, 10}, opts(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := countOp(cp.Programs[i], isa.OpSYNC); got != 1 {
			t.Fatalf("controller %d sync count = %d", i, got)
		}
	}
	// The sync targets cross-reference each other.
	findSync := func(p *isa.Program) int32 {
		for _, in := range p.Instrs {
			if in.Op == isa.OpSYNC {
				return in.Imm
			}
		}
		return -1
	}
	if findSync(cp.Programs[0]) != 1 || findSync(cp.Programs[1]) != 0 {
		t.Fatal("sync targets do not cross-reference")
	}
	if cp.Stats.NearbySyncs != 2 {
		t.Fatalf("stats syncs = %d", cp.Stats.NearbySyncs)
	}
}

func TestSyncWindowPlacement(t *testing.T) {
	// The wait time between each sync and its gate commit must equal the
	// window on both sides — the alignment precondition (DESIGN.md §2.3).
	c := circuit.New(2)
	c.H(0) // 5 cycles of slack on controller 0 only
	c.CNOT(0, 1)
	const window = 4
	cp, err := Compile(c, nil, fixedWindows{window, 10}, opts(2))
	if err != nil {
		t.Fatal(err)
	}
	for side := 0; side < 2; side++ {
		p := cp.Programs[side]
		syncAt := -1
		for i, in := range p.Instrs {
			if in.Op == isa.OpSYNC {
				syncAt = i
				break
			}
		}
		if syncAt < 0 {
			t.Fatalf("side %d: no sync", side)
		}
		// Sum waits from the sync to the first Z-port commit.
		var waits int64
		found := false
		for _, in := range p.Instrs[syncAt+1:] {
			if in.Op == isa.OpWAITI {
				waits += int64(in.Imm)
				continue
			}
			if in.Op == isa.OpCWII && in.Rd == 1 { // Z port
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("side %d: no synchronized commit", side)
		}
		if waits != window {
			t.Fatalf("side %d: window = %d cycles, want %d", side, waits, window)
		}
	}
}

func TestCompileMeasurementAndFeedback(t *testing.T) {
	c := circuit.New(2)
	b := c.MeasureNew(0)
	c.CondGate(circuit.X, circuit.Condition{Bits: []int{b}, Parity: 1}, 1)
	cp, err := Compile(c, nil, fixedWindows{2, 10}, opts(2))
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := cp.Programs[0], cp.Programs[1]
	if countOp(p0, isa.OpFMR) != 1 {
		t.Fatal("owner missing fmr")
	}
	if countOp(p0, isa.OpSEND) != 1 {
		t.Fatal("owner missing send")
	}
	if countOp(p1, isa.OpRECV) != 1 {
		t.Fatal("consumer missing recv")
	}
	if countOp(p1, isa.OpBEQ) != 1 {
		t.Fatal("consumer missing branch")
	}
	if cp.BitOwner[b] != 0 {
		t.Fatalf("bit owner = %d", cp.BitOwner[b])
	}
}

func TestCompileParityCondition(t *testing.T) {
	c := circuit.New(3)
	b1 := c.MeasureNew(0)
	b2 := c.MeasureNew(1)
	c.CondGate(circuit.Z, circuit.Condition{Bits: []int{b1, b2}, Parity: 1}, 2)
	cp, err := Compile(c, nil, fixedWindows{2, 10}, opts(3))
	if err != nil {
		t.Fatal(err)
	}
	p2 := cp.Programs[2]
	if countOp(p2, isa.OpRECV) != 2 || countOp(p2, isa.OpXOR) != 2 {
		t.Fatalf("parity chain: %d recv, %d xor", countOp(p2, isa.OpRECV), countOp(p2, isa.OpXOR))
	}
}

func TestCompileRejectsUseBeforeMeasure(t *testing.T) {
	c := &circuit.Circuit{NumQubits: 2, NumBits: 1}
	c.CondGate(circuit.X, circuit.Condition{Bits: []int{0}, Parity: 1}, 1)
	if _, err := Compile(c, nil, fixedWindows{2, 10}, opts(2)); err == nil {
		t.Fatal("expected use-before-measure error")
	}
}

func TestCompileRejectsConditionedTwoQubit(t *testing.T) {
	c := circuit.New(2)
	b := c.MeasureNew(0)
	c.CondGate(circuit.CNOT, circuit.Condition{Bits: []int{b}, Parity: 1}, 0, 1)
	if _, err := Compile(c, nil, fixedWindows{2, 10}, opts(2)); err == nil {
		t.Fatal("expected unsupported-op error")
	}
}

func TestCompileBadMapping(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	if _, err := Compile(c, []int{0, 9}, fixedWindows{2, 10}, opts(2)); err == nil {
		t.Fatal("expected mapping range error")
	}
}

func TestTableDeduplication(t *testing.T) {
	c := circuit.New(1)
	for i := 0; i < 50; i++ {
		c.H(0)
	}
	cp, err := Compile(c, nil, fixedWindows{2, 10}, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Tables[0]) != 1 {
		t.Fatalf("repeated gate interned %d entries", len(cp.Tables[0]))
	}
}

func TestInitialBarrierOnAllControllers(t *testing.T) {
	c := circuit.New(1)
	c.H(0)
	o := DefaultOptions(3, 3)
	cp, err := Compile(c, nil, fixedWindows{2, 10}, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if countOp(cp.Programs[i], isa.OpSYNC) != 1 {
			t.Fatalf("controller %d missing the start barrier", i)
		}
	}
}

func TestWideWaitUsesRegister(t *testing.T) {
	c := circuit.New(1)
	c.DelayGate(0, 100_000)
	cp, err := Compile(c, nil, fixedWindows{2, 10}, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	if countOp(cp.Programs[0], isa.OpWAITR) != 1 {
		t.Fatal("expected li+waitr expansion for a wide wait")
	}
}

// TestMeasBitsStaticPredicate pins Compiled.MeasBits: non-nil exactly when
// the lowered program has no conditioned op and writes no classical bit
// twice, listing per controller the bits its measurements write in program
// order — under a mapping, by the controller that measures, not the qubit.
func TestMeasBitsStaticPredicate(t *testing.T) {
	compile := func(c *circuit.Circuit, mapping []int) *Compiled {
		t.Helper()
		cp, err := Compile(c, mapping, fixedWindows{2, 10}, opts(3))
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	c := circuit.New(3)
	c.H(0).CNOT(0, 1).MeasureInto(2, 0).MeasureInto(0, 2).MeasureInto(1, 1)
	cp := compile(c, []int{1, 1, 0}) // qubits 0 and 1 share controller 1
	want := [][]int{{0}, {2, 1}, nil}
	if !cp.Static() || !reflect.DeepEqual(cp.MeasBits, want) {
		t.Fatalf("MeasBits = %v (static %v), want %v", cp.MeasBits, cp.Static(), want)
	}
	if cp := compile(circuit.New(3).H(0), nil); !cp.Static() {
		t.Fatal("a program with no measurement is static")
	}

	cond := circuit.New(3)
	cond.H(0).MeasureInto(0, 0)
	cond.CondGate(circuit.X, circuit.Condition{Bits: []int{0}, Parity: 1}, 1)
	if cp := compile(cond, nil); cp.Static() || cp.MeasBits != nil {
		t.Fatalf("conditioned op compiled static: %v", cp.MeasBits)
	}
	twice := circuit.New(3)
	twice.H(0).MeasureInto(0, 0).H(1).MeasureInto(1, 0)
	if cp := compile(twice, nil); cp.Static() {
		t.Fatal("bit written twice compiled static")
	}

	// A BindParams patch is the same program.
	sym := circuit.New(3)
	sym.RYSym(0, "a").MeasureInto(0, 0)
	skel := compile(sym, nil)
	bound, err := skel.BindParams(map[string]float64{"a": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Static() || !reflect.DeepEqual(bound.MeasBits, skel.MeasBits) {
		t.Fatalf("binding changed MeasBits: %v vs %v", bound.MeasBits, skel.MeasBits)
	}
}
