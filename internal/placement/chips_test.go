package placement

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/workloads"
)

// rungs builds the chain-plus-cross-half-rung structure of the distributed
// VQE ansatz: a nearest-neighbor chain (contiguous splits cut it once) plus
// CNOT(q, q+n/2) rungs that contiguous splits cut n/2 times but a partition
// grouping {q, q+n/2} pairs cuts almost never. Pure greedy growth fails on
// it — the chain pulls every qubit into one blob — so it exercises the KL
// refinement specifically.
func rungs(n int) *circuit.Circuit {
	c := circuit.New(n)
	half := n / 2
	for q := 0; q+1 < n; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < half; q++ {
		c.CNOT(q, q+half)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

func TestContiguousChipsBalanced(t *testing.T) {
	for _, n := range []int{1, 4, 7, 16} {
		for chips := 1; chips <= n && chips <= 5; chips++ {
			chipOf := ContiguousChips(n, chips)
			sizes := make([]int, chips)
			prev := 0
			for q, ch := range chipOf {
				if ch < prev {
					t.Fatalf("n=%d chips=%d: chip ids not monotone at qubit %d", n, chips, q)
				}
				prev = ch
				sizes[ch]++
			}
			for j, s := range sizes {
				if s < n/chips || s > n/chips+1 {
					t.Fatalf("n=%d chips=%d: chip %d holds %d qubits, want %d or %d", n, chips, j, s, n/chips, n/chips+1)
				}
			}
		}
	}
}

// TestPartitionChipsNeverWorse pins the fallback contract on every sweep
// workload: the interaction partition's cut is at most contiguous, and the
// block sizes still match the contiguous capacities (KL only swaps).
func TestPartitionChipsNeverWorse(t *testing.T) {
	cases := map[string]*circuit.Circuit{
		"ghz":   workloads.GHZ(16),
		"qft":   workloads.QFT(12),
		"bv":    workloads.BV(16, workloads.AlternatingSecret),
		"rungs": rungs(16),
	}
	for name, c := range cases {
		for _, chips := range []int{2, 3, 4} {
			chipOf, err := PartitionChips(c, chips, "interaction")
			if err != nil {
				t.Fatal(err)
			}
			contiguous := ContiguousChips(c.NumQubits, chips)
			if got, base := circuit.RemoteGateCount(c, chipOf), circuit.RemoteGateCount(c, contiguous); got > base {
				t.Fatalf("%s chips=%d: interaction cut %d > contiguous %d", name, chips, got, base)
			}
			sizes := make([]int, chips)
			for _, ch := range chipOf {
				if ch < 0 || ch >= chips {
					t.Fatalf("%s chips=%d: chip id %d out of range", name, chips, ch)
				}
				sizes[ch]++
			}
			baseSizes := make([]int, chips)
			for _, ch := range contiguous {
				baseSizes[ch]++
			}
			if !reflect.DeepEqual(sizes, baseSizes) {
				t.Fatalf("%s chips=%d: block sizes %v, want contiguous %v (balance broken)", name, chips, sizes, baseSizes)
			}
		}
	}
}

// TestPartitionChipsBeatsContiguousOnRungs is the strict half of the bench
// gate in unit form: on the rung structure the refined partition must cut
// strictly fewer gates than contiguous — this is exactly the case the
// greedy-only partitioner lost (its chain blob fell back to contiguous).
func TestPartitionChipsBeatsContiguousOnRungs(t *testing.T) {
	c := rungs(16)
	chipOf, err := PartitionChips(c, 2, "interaction")
	if err != nil {
		t.Fatal(err)
	}
	got := circuit.RemoteGateCount(c, chipOf)
	base := circuit.RemoteGateCount(c, ContiguousChips(16, 2))
	if base != 9 { // chain edge 7-8 plus the 8 rungs
		t.Fatalf("contiguous cut = %d, want 9 (test premise broken)", base)
	}
	if got >= base {
		t.Fatalf("interaction cut %d, want strictly below contiguous %d", got, base)
	}
}

func TestPartitionChipsDeterministic(t *testing.T) {
	c := rungs(14)
	first, err := PartitionChips(c, 3, "interaction")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := PartitionChips(c, 3, "interaction")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d produced %v, first run %v", i, again, first)
		}
	}
}

func TestPartitionChipsContiguousPolicies(t *testing.T) {
	c := workloads.GHZ(8)
	for _, policy := range []string{"", "identity"} {
		chipOf, err := PartitionChips(c, 2, policy)
		if err != nil {
			t.Fatal(err)
		}
		if want := ContiguousChips(8, 2); !reflect.DeepEqual(chipOf, want) {
			t.Fatalf("%q partition = %v, want contiguous %v", policy, chipOf, want)
		}
	}
}

func TestPartitionChipsErrors(t *testing.T) {
	c := workloads.GHZ(4)
	if _, err := PartitionChips(c, 2, "bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := PartitionChips(c, 0, "interaction"); err == nil {
		t.Fatal("0 chips accepted")
	}
	if _, err := PartitionChips(c, 5, "interaction"); err == nil {
		t.Fatal("more chips than qubits accepted")
	}
}
