package runner

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
)

// statevecSpec is a feed-forward-free non-Clifford circuit on 6 qubits
// with random measurement outcomes: BackendAuto resolves to the dense
// state vector, so batching must keep every lane's RNG stream in step.
func statevecSpec(seed int64) Spec {
	c := circuit.New(6)
	c.H(0).T(0).CNOT(0, 1).T(1).H(2).CNOT(2, 3).RXGate(4, 0.7).CNOT(4, 5)
	for q := 0; q < 6; q++ {
		c.MeasureInto(q, q)
	}
	cfg := machine.DefaultConfig(6)
	cfg.Seed = seed
	return Spec{Circuit: c, MeshW: 3, MeshH: 2, Cfg: cfg}
}

// seededSpec forces the timing-only seeded backend on the Clifford chain —
// the block-replay configuration the shot benchmarks gate on.
func seededSpec(seed int64) Spec {
	spec := cliffordSpec(seed)
	spec.Cfg.Backend = machine.BackendSeeded
	return spec
}

// TestBatchedMatchesUnbatched is the batched-shot determinism invariant:
// RunBatched with any lane count is byte-identical to Run, shot for shot —
// bits, seeds and Results — across every backend kind.
func TestBatchedMatchesUnbatched(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"stabilizer", cliffordSpec(7)},
		{"statevec", statevecSpec(19)},
		{"seeded", seededSpec(23)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const shots = 13
			plain, err := Run(tc.spec, shots, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, lanes := range []int{2, 4, 13, 16} {
				batched, err := RunBatched(tc.spec, shots, lanes)
				if err != nil {
					t.Fatalf("lanes=%d: %v", lanes, err)
				}
				if !reflect.DeepEqual(plain, batched) {
					for k := range plain.Shots {
						if !reflect.DeepEqual(plain.Shots[k], batched.Shots[k]) {
							t.Fatalf("lanes=%d: shot %d diverged:\nunbatched %+v\nbatched   %+v",
								lanes, k, plain.Shots[k], batched.Shots[k])
						}
					}
					t.Fatalf("lanes=%d: sets diverged outside shots", lanes)
				}
			}
		})
	}
}

// TestBatchableRejectsFeedForward pins the validity predicate: conditioned
// ops and re-measured bits disqualify a circuit, and RunBatched refuses it.
func TestBatchableRejectsFeedForward(t *testing.T) {
	ff := dynamicSpec(3)
	if Batchable(ff.Circuit) {
		t.Fatal("feed-forward circuit reported batchable")
	}
	if _, err := RunBatched(ff, 4, 2); err == nil {
		t.Fatal("RunBatched accepted a feed-forward circuit")
	}

	re := circuit.New(2)
	re.H(0).MeasureInto(0, 0).H(1).MeasureInto(1, 0) // bit 0 written twice
	if Batchable(re) {
		t.Fatal("re-measured bit reported batchable")
	}

	if !Batchable(cliffordSpec(1).Circuit) {
		t.Fatal("plain measured circuit reported unbatchable")
	}
}

// TestBatchedLaneFallback: lanes <= 1 must defer to the plain path.
func TestBatchedLaneFallback(t *testing.T) {
	spec := cliffordSpec(5)
	plain, err := Run(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunBatched(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, one) {
		t.Fatal("RunBatched(lanes=1) diverged from Run")
	}
}

// TestBatchedNonIdentityPlacement runs the batched path under a
// non-identity placement policy, where bit reconstruction must follow the
// compiled BitOwner table rather than the logical qubit index.
func TestBatchedNonIdentityPlacement(t *testing.T) {
	spec := cliffordSpec(9)
	spec.Cfg.Placement = "interaction"
	plain, err := Run(spec, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := RunBatched(spec, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, batched) {
		t.Fatal("batched run diverged under non-identity placement")
	}
}
