package exp

import (
	"strings"
	"testing"
)

// TestRemoteSweepGate runs the remote experiment's grid and enforces the
// same gate dhisq-bench -exp remote does: single-chip cells degenerate
// cleanly, every multi-chip cell generated pairs for its cut, and the
// interaction partition is never worse than identity with a strict win
// somewhere.
func TestRemoteSweepGate(t *testing.T) {
	points, err := RemoteSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, remoteGates(points))
	// 3 workloads x 3 chip counts x 2 latencies x 2 policies.
	if len(points) != 36 {
		t.Fatalf("got %d points, want 36", len(points))
	}
	if !strings.Contains(renderRows(points, remoteCols), "dvqe") {
		t.Fatal("rendered table lost the dvqe rows")
	}
}

// TestCheckRemoteCatchesRegression pins that each contract clause turns
// its own gate red: a leaking single-chip cell, a pair deficit, a
// worse-than-identity cut, and a sweep with no strict win.
func TestCheckRemoteCatchesRegression(t *testing.T) {
	base := []RemotePoint{
		{Workload: "w", Chips: 1, EPRLatency: 40, Policy: "identity"},
		{Workload: "w", Chips: 1, EPRLatency: 40, Policy: "interaction"},
		{Workload: "w", Chips: 2, EPRLatency: 40, Policy: "identity", CutGates: 4, EPRPairs: 4},
		{Workload: "w", Chips: 2, EPRLatency: 40, Policy: "interaction", CutGates: 2, EPRPairs: 2},
	}
	requirePass(t, remoteGates(base))
	requireFail(t, remoteGates(nil), "cells", "cut_strictly_fewer")

	leak := append([]RemotePoint(nil), base...)
	leak[0].EPRPairs = 1
	requireFail(t, remoteGates(leak), "single_chip_clean")

	deficit := append([]RemotePoint(nil), base...)
	deficit[3].EPRPairs = 1
	requireFail(t, remoteGates(deficit), "pairs_cover_cut")

	worse := append([]RemotePoint(nil), base...)
	worse[3].CutGates, worse[3].EPRPairs = 9, 9
	requireFail(t, remoteGates(worse), "cut_never_worse", "cut_strictly_fewer")

	flat := append([]RemotePoint(nil), base...)
	flat[3].CutGates, flat[3].EPRPairs = 4, 4
	requireFail(t, remoteGates(flat), "cut_strictly_fewer")
}

// TestRemoteCircuitUnknownWorkload pins the error path.
func TestRemoteCircuitUnknownWorkload(t *testing.T) {
	if _, err := sweepCircuit("bogus"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, name := range RemoteSweepWorkloads() {
		c, err := sweepCircuit(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumQubits != 16 {
			t.Fatalf("%s: %d qubits, want 16", name, c.NumQubits)
		}
	}
}
