package baseline

import (
	"reflect"
	"strings"
	"testing"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
)

func run(t *testing.T, c *circuit.Circuit, cmp Comparator, backend chip.Backend) Result {
	t.Helper()
	res, err := Run(c, cmp, backend)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestComparatorsPinned holds the table's surface: the row names in
// report order, hub first, and a § cite in every stated assumption.
func TestComparatorsPinned(t *testing.T) {
	var names []string
	for _, c := range Comparators {
		names = append(names, c.Name)
		if !strings.Contains(c.Assumption, "§") {
			t.Errorf("%s: assumption %q cites no §", c.Name, c.Assumption)
		}
	}
	if want := []string{"hub", "favorable"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("comparator names = %v, want %v", names, want)
	}
	if Comparators[0] != Hub {
		t.Fatalf("first comparator %+v is not Hub", Comparators[0])
	}
}

// TestRunRefuses: Run answers an invalid circuit or a missing outcome
// source with an error, never a makespan.
func TestRunRefuses(t *testing.T) {
	ok := circuit.New(1)
	ok.MeasureInto(0, 0)
	bad := circuit.New(1)
	bad.H(3)
	for _, tc := range []struct {
		name    string
		c       *circuit.Circuit
		backend chip.Backend
		want    string
	}{
		{"invalid circuit", bad, chip.NewSeeded(1), "qubit"},
		{"nil backend", ok, nil, "baseline: nil backend"},
	} {
		_, err := Run(tc.c, Hub, tc.backend)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestDeterministicOpsOverlap(t *testing.T) {
	// Parallel H gates on different qubits cost one gate time, not four.
	c := circuit.New(4)
	c.H(0).H(1).H(2).H(3)
	res := run(t, c, Hub, chip.NewSeeded(1))
	if one := circuit.PaperDurations().OneQubit; res.Makespan != one {
		t.Fatalf("makespan = %d, want %d", res.Makespan, one)
	}
}

func TestConditionalWaitsForBroadcast(t *testing.T) {
	c := circuit.New(2)
	c.X(0)
	b := c.MeasureNew(0)
	c.CondGate(circuit.X, circuit.Condition{Bits: []int{b}, Parity: 1}, 1)
	res := run(t, c, Hub, chip.NewSeeded(1))
	// X(5) + measure start at 5, latched at 5+80, broadcast +10, then X(5).
	want := 5 + chip.MeasLatency + Broadcast + 5
	if res.Makespan != want {
		t.Fatalf("makespan = %d, want %d", res.Makespan, want)
	}
}

func TestUntakenBranchSkipsGateTime(t *testing.T) {
	// Shared flow skips together: an untaken conditional costs no gate time
	// (unlike time-reservation, §2.1.2).
	build := func(prepOne bool) *circuit.Circuit {
		c := circuit.New(2)
		if prepOne {
			c.X(0)
		}
		b := c.MeasureNew(0)
		c.CondGate(circuit.X, circuit.Condition{Bits: []int{b}, Parity: 1}, 1)
		c.H(1)
		return c
	}
	taken := run(t, build(true), Hub, chip.NewStateVec(2, 1))
	skipped := run(t, build(false), Hub, chip.NewStateVec(2, 2))
	if skipped.Makespan >= taken.Makespan {
		t.Fatalf("skipped branch (%d) should beat taken (%d)", skipped.Makespan, taken.Makespan)
	}
}

func TestHubSerializesSimultaneousResults(t *testing.T) {
	// Four simultaneous measurements: with the hub bus, the last result is
	// delayed by 3 extra broadcast slots.
	build := func() *circuit.Circuit {
		c := circuit.New(4)
		var bits []int
		for q := 0; q < 4; q++ {
			bits = append(bits, c.MeasureNew(q))
		}
		for q := 0; q < 4; q++ {
			c.CondGate(circuit.X, circuit.Condition{Bits: []int{bits[q]}, Parity: 0}, q)
		}
		return c
	}
	hr := run(t, build(), Hub, chip.NewSeeded(3))
	fr := run(t, build(), Comparators[1], chip.NewSeeded(3))
	if hr.Makespan <= fr.Makespan {
		t.Fatalf("hub (%d) should be slower than favorable (%d)", hr.Makespan, fr.Makespan)
	}
	// The last consumed result trails by up to 3 extra broadcast slots
	// (exactly which conditional ends last depends on the seeded outcomes).
	if d := hr.Makespan - fr.Makespan; d < 2*Broadcast || d > 3*Broadcast {
		t.Fatalf("hub penalty = %d, want within [%d,%d]", d, 2*Broadcast, 3*Broadcast)
	}
}

func TestBarrierLiftsWatermark(t *testing.T) {
	c := circuit.New(2)
	c.MeasureInto(0, 0) // 75 cycles on qubit 0
	c.BarrierAll()
	c.H(1) // must start after the barrier
	res := run(t, c, Hub, chip.NewSeeded(1))
	if res.Makespan != 75+5 {
		t.Fatalf("makespan = %d, want 80", res.Makespan)
	}
}

func TestOutcomesMatchBackend(t *testing.T) {
	// Deterministic circuit: the recorded bits follow the quantum state.
	c := circuit.New(2)
	c.X(0)
	c.CNOT(0, 1)
	c.MeasureInto(0, 0)
	c.MeasureInto(1, 1)
	res := run(t, c, Hub, chip.NewStateVec(2, 5))
	if res.Bits[0] != 1 || res.Bits[1] != 1 {
		t.Fatalf("bits = %v", res.Bits)
	}
}

func TestCompareRejectsZero(t *testing.T) {
	if _, err := Compare(10, 0); err == nil {
		t.Fatal("expected error")
	}
	r, err := Compare(50, 100)
	if err != nil || r != 0.5 {
		t.Fatalf("ratio = %v err = %v", r, err)
	}
}
