package machine

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/sim"
)

// starCircuit is the adversarial placement workload: every data qubit
// CNOTs into one hub, so the hub's links congest under finite bandwidth.
func starCircuit(n int) *circuit.Circuit {
	c := circuit.New(n)
	hub := n - 1
	for round := 0; round < 3; round++ {
		for q := 0; q < n-1; q++ {
			c.CNOT(q, hub)
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

func contendedConfig(n int) Config {
	cfg := DefaultConfig(n)
	cfg.Backend = BackendSeeded
	cfg.Seed = 1
	cfg.Net.LinkSerialization = 4
	return cfg
}

// measuredMakespan runs one shot under the given mapping and returns its
// makespan.
func measuredMakespan(t *testing.T, c *circuit.Circuit, cfg Config, mapping []int) sim.Time {
	t.Helper()
	res, _, err := RunCircuit(c, cfg.Net.MeshW, cfg.Net.MeshH, mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

// TestRePlaceDeterministic: identical inputs must yield the identical
// re-placed mapping and measured makespan.
func TestRePlaceDeterministic(t *testing.T) {
	c := starCircuit(9)
	cfg := contendedConfig(9)
	m1, s1, err := RePlace(c, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, s2, err := RePlace(c, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) || s1 != s2 {
		t.Fatalf("RePlace not deterministic: (%v, %d) vs (%v, %d)", m1, s1, m2, s2)
	}
}

// TestRePlaceNeverMeasurablyWorse: the returned mapping's measured
// makespan must not exceed the incumbent's — only strict improvements are
// accepted — and the reported makespan must be the mapping's own.
func TestRePlaceNeverMeasurablyWorse(t *testing.T) {
	c := starCircuit(9)
	cfg := contendedConfig(9)
	incumbent := measuredMakespan(t, c, cfg, nil)
	mapping, span, err := RePlace(c, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if span > incumbent {
		t.Fatalf("re-place selected makespan %d above incumbent %d", span, incumbent)
	}
	if remeasured := measuredMakespan(t, c, cfg, mapping); remeasured != span {
		t.Fatalf("reported makespan %d != re-measured %d", span, remeasured)
	}
}

// TestRePlaceEmptyFeedbackKeepsIncumbent: when the probes carry no signal
// — every mapping of a circuit with no two-qubit gate and no traffic
// measures the same — no swap is strictly better, so the prior mapping
// comes back.
func TestRePlaceEmptyFeedbackKeepsIncumbent(t *testing.T) {
	c := circuit.New(6)
	for q := 0; q < 6; q++ {
		c.H(q)
		c.MeasureInto(q, q)
	}
	cfg := contendedConfig(6)
	prior := []int{2, 1, 0, 3, 5, 4}
	mapping, span, err := RePlace(c, cfg, prior)
	if err != nil {
		t.Fatal(err)
	}
	if want := measuredMakespan(t, c, cfg, prior); span != want {
		t.Fatalf("makespan %d, want the prior's %d", span, want)
	}
	if !reflect.DeepEqual(mapping, prior) {
		t.Fatalf("a tie changed the mapping: %v -> %v", prior, mapping)
	}
}
