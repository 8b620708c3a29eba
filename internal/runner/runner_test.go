package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
)

// cliffordSpec is a feed-forward-free GHZ chain on 16 qubits: Clifford and
// large enough that BackendAuto resolves to the stabilizer tableau.
func cliffordSpec(seed int64) Spec {
	n := 16
	c := circuit.New(n)
	c.H(0)
	for q := 0; q < n-1; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	cfg := machine.DefaultConfig(n)
	cfg.Seed = seed
	return Spec{Circuit: c, MeshW: 4, MeshH: 4, Cfg: cfg}
}

// dynamicSpec is a non-Clifford feed-forward circuit on 6 qubits (T gates
// plus a measurement-conditioned correction): BackendAuto resolves to the
// dense state vector, and the conditional exercises the classical message
// path between controllers.
func dynamicSpec(seed int64) Spec {
	c := circuit.New(6)
	c.H(0).T(0).CNOT(0, 1).T(1).H(2).CNOT(2, 3)
	c.MeasureInto(3, 0)
	c.CondGate(circuit.X, circuit.Condition{Bits: []int{0}, Parity: 1}, 4)
	c.T(4).CNOT(4, 5)
	for q := 0; q < 6; q++ {
		c.MeasureInto(q, q)
	}
	cfg := machine.DefaultConfig(6)
	cfg.Seed = seed
	return Spec{Circuit: c, MeshW: 3, MeshH: 2, Cfg: cfg}
}

// TestShotStreamVaries checks that the derived per-shot seeds actually vary
// outcomes across shots: a stuck seed would make every shot identical.
func TestShotStreamVaries(t *testing.T) {
	set, err := Run(cliffordSpec(3), 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := set.Histogram()
	if len(h) < 2 {
		t.Fatalf("24 GHZ shots collapsed to %d outcome(s): %v", len(h), h)
	}
	for key := range h {
		// GHZ: all bits agree within a shot.
		for i := 1; i < len(key); i++ {
			if key[i] != key[0] {
				t.Fatalf("non-GHZ outcome %q", key)
			}
		}
	}
}

// TestShotZeroMatchesLegacySingleRun pins DeriveSeed(base, 0) == base: the
// runner's first shot is bit-identical to the one-call machine path.
func TestShotZeroMatchesLegacySingleRun(t *testing.T) {
	spec := dynamicSpec(42)
	set, err := Run(spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, m, err := machine.RunCircuit(spec.Circuit, spec.MeshW, spec.MeshH, spec.Mapping, spec.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set.Shots[0].Result, res) {
		t.Fatalf("shot 0 result %+v != legacy %+v", set.Shots[0].Result, res)
	}
	bits, err := m.ReadBits()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set.Shots[0].Bits, bits) {
		t.Fatalf("shot 0 bits %v != legacy %v", set.Shots[0].Bits, bits)
	}
}

func TestHistogramRender(t *testing.T) {
	set := &ShotSet{Shots: []Shot{
		{Bits: []int{1, 0}}, {Bits: []int{1, 0}}, {Bits: []int{0, 1}},
	}}
	h := set.Histogram()
	if h["10"] != 2 || h["01"] != 1 {
		t.Fatalf("bad histogram %v", h)
	}
	if got, want := h.String(), "01 1\n10 2\n"; got != want {
		t.Fatalf("render %q, want %q", got, want)
	}
}

func TestZeroShots(t *testing.T) {
	set, err := Run(cliffordSpec(1), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Shots) != 0 {
		t.Fatal("expected empty set")
	}
}

// Cfg.Placement reaches the compile and survives an explicit
// compiler-options override that names no policy of its own.
func TestSpecPlacementThreads(t *testing.T) {
	c := circuit.New(6)
	c.H(0)
	for q := 0; q < 5; q++ {
		c.CNOT(q, 5)
	}
	for q := 0; q < 6; q++ {
		c.MeasureInto(q, q)
	}
	spec := Spec{Circuit: c, MeshW: 3, MeshH: 2, Cfg: machine.DefaultConfig(6)}
	spec.Cfg.Placement = "interaction"
	_, cp, err := start(spec, false, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Mapping) != 6 {
		t.Fatalf("placement did not thread: mapping %v", cp.Mapping)
	}

	// The ablation's Cfg.Padded, the only way to turn advance booking off,
	// is a second Cfg field on the same path: it compiles a different
	// artifact and keeps the spec's placement.
	spec.Cfg.Padded = true
	_, cp2, err := start(spec, false, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cp2 == cp {
		t.Fatal("the padded schedule aliased the fixed artifact")
	}
	if !reflect.DeepEqual(cp2.Mapping, cp.Mapping) {
		t.Fatalf("Padded changed the placement: %v vs %v", cp2.Mapping, cp.Mapping)
	}
}

// A backend panic inside a shot (the stabilizer tableau cannot apply T)
// becomes that shot's error — a *PanicError naming the lowest failing
// index — on the single-replica loop and on the worker goroutines alike,
// instead of unwinding through the caller. machine.Normalize refuses that
// pairing, so the replicas are built past it, with machine.New.
func TestRunRecoversBackendPanic(t *testing.T) {
	c := circuit.New(1)
	c.H(0).T(0).MeasureInto(0, 0)
	cfg, err := machine.Normalize(c, 1, 1, machine.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	art, err := machine.CompileUncached(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = machine.BackendStabilizer
	for _, workers := range []int{1, 3} {
		machines := make([]*machine.Machine, workers)
		for i := range machines {
			if machines[i], err = machine.New(cfg, c.NumQubits); err != nil {
				t.Fatal(err)
			}
			if err := machines[i].Load(art); err != nil {
				t.Fatal(err)
			}
		}
		_, err := RunOn(machines, cfg.Seed, 6, c.NumBits)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want a *PanicError", workers, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "work item 0") || !strings.Contains(msg, "cannot apply") {
			t.Fatalf("workers=%d: error %q does not name shot 0 and the panic text", workers, msg)
		}
	}
}

// runRebuild is the rebuild-per-shot oracle: every shot constructs a fresh
// machine and runs the compiler pipeline in full, never touching the
// artifact cache (a cached rebuild would no longer measure what it claims
// to). The reset path is verified against it, and it is the "before" side
// of the shot-throughput benchmarks.
func runRebuild(spec Spec, shots int) (*ShotSet, error) {
	set := &ShotSet{Shots: make([]Shot, shots), NumBits: spec.Circuit.NumBits}
	for k := range set.Shots {
		cfg := spec.Cfg
		cfg.Seed = machine.DeriveSeed(spec.Cfg.Seed, k)
		m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, cfg)
		if err != nil {
			return nil, err
		}
		cp, err := machine.CompileUncached(spec.Circuit, spec.Mapping, m.Cfg)
		if err != nil {
			return nil, err
		}
		if err := m.Load(cp); err != nil {
			return nil, err
		}
		res, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("rebuild shot %d: %w", k, err)
		}
		bits, err := m.ReadBits()
		if err != nil {
			return nil, fmt.Errorf("rebuild shot %d: %w", k, err)
		}
		set.Shots[k] = Shot{Index: k, Seed: cfg.Seed, Result: res, Bits: bits}
	}
	return set, nil
}
