package exp

import (
	"testing"

	"dhisq/internal/network"
	"dhisq/internal/sim"
)

// TestCollectiveSweepGate runs a reduced grid of the collective experiment
// and enforces the same gate dhisq-bench -exp collective does: oracle
// equality in every cell, collective never slower than naive, strictly
// faster somewhere on torus and on tree.
func TestCollectiveSweepGate(t *testing.T) {
	points, err := CollectiveSweep(CollectiveOptions{
		Participants:   []int{4, 9, 18},
		Serializations: []sim.Time{2, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, collectiveGates(points))
	// 3 kinds x 3 topologies x 3 participant counts x 2 bandwidths
	// (all-reduce joined the gated defaults with the ring schedule).
	if len(points) != 54 {
		t.Fatalf("got %d points, want 54", len(points))
	}
}

// TestCollectiveSweepRejectsInfiniteBandwidth pins the design note in the
// package comment: uncontended cells are meaningless for the schedule
// comparison, so ser=0 is an error, not a silently-skipped cell.
func TestCollectiveSweepRejectsInfiniteBandwidth(t *testing.T) {
	_, err := CollectiveSweep(CollectiveOptions{Serializations: []sim.Time{0}})
	if err == nil {
		t.Fatal("ser=0 cell accepted")
	}
}

// TestCheckCollectiveCatchesRegression pins that each gate bites on its
// own clause: a doctored slower-than-naive cell, a sweep with no strict
// win, a cell that diverged from the oracle, and an empty sweep.
func TestCheckCollectiveCatchesRegression(t *testing.T) {
	points, err := CollectiveSweep(CollectiveOptions{
		Participants:   []int{9},
		Serializations: []sim.Time{4},
		Kinds:          []network.CollKind{network.CollReduce},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]CollectivePoint(nil), points...)
	bad[0].CollMakespan = bad[0].NaiveMakespan + 1
	requirePass(t, collectiveGates(points))
	requireFail(t, collectiveGates(bad), "never_slower")
	flat := append([]CollectivePoint(nil), points...)
	for i := range flat {
		flat[i].CollMakespan = flat[i].NaiveMakespan
	}
	requireFail(t, collectiveGates(flat), "torus_strict", "tree_strict")
	wrong := append([]CollectivePoint(nil), points...)
	wrong[1].ValuesMatch = false
	requireFail(t, collectiveGates(wrong), "values_match")
	requireFail(t, collectiveGates(nil), "cells")
}
