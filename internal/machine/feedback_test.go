package machine

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
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

// measuredFeedback runs one shot under the given mapping and returns its
// congestion digest (plus the measured stall, for never-worse checks).
func measuredFeedback(t *testing.T, c *circuit.Circuit, cfg Config, mapping []int) (network.CongestionStats, int64) {
	t.Helper()
	m, err := NewForCircuit(c, cfg.Net.MeshW, cfg.Net.MeshH, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompileUncached(c, mapping, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(cp); err != nil {
		t.Fatal(err)
	}
	res, _, err := m.Shot(m.Cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return res.Net, int64(res.Net.TotalStall())
}

// TestRePlaceDeterministic: identical feedback must yield the identical
// re-placed mapping and measured stall — the property the service's
// worker-count-independent re-placement rests on.
func TestRePlaceDeterministic(t *testing.T) {
	c := starCircuit(9)
	cfg := contendedConfig(9)
	fb, _ := measuredFeedback(t, c, cfg, nil)
	m1, s1, err := RePlace(c, cfg, nil, fb)
	if err != nil {
		t.Fatal(err)
	}
	m2, s2, err := RePlace(c, cfg, nil, fb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) || s1 != s2 {
		t.Fatalf("RePlace not deterministic: (%v, %d) vs (%v, %d)", m1, s1, m2, s2)
	}
}

// TestRePlaceNeverMeasurablyWorse: the returned mapping's measured stall
// must not exceed the incumbent's — the incumbent is candidate zero and
// only strict improvements are accepted.
func TestRePlaceNeverMeasurablyWorse(t *testing.T) {
	c := starCircuit(9)
	cfg := contendedConfig(9)
	fb, incumbentStall := measuredFeedback(t, c, cfg, nil)
	if incumbentStall == 0 {
		t.Fatal("star workload produced no stall — contention model off?")
	}
	mapping, stall, err := RePlace(c, cfg, nil, fb)
	if err != nil {
		t.Fatal(err)
	}
	if stall > incumbentStall {
		t.Fatalf("re-place selected stall %d above incumbent %d", stall, incumbentStall)
	}
	// The reported stall must be real: re-measure the returned mapping.
	_, remeasured := measuredFeedback(t, c, cfg, mapping)
	if remeasured != stall {
		t.Fatalf("reported stall %d != re-measured %d", stall, remeasured)
	}
}

// TestRePlaceEmptyFeedbackKeepsIncumbent: with no stall signal there are
// no candidates beyond the incumbent, so the prior mapping comes back.
func TestRePlaceEmptyFeedbackKeepsIncumbent(t *testing.T) {
	c := starCircuit(6)
	cfg := contendedConfig(6)
	cfg.Net.LinkSerialization = 0 // contention off: probes read zero stall
	prior := []int{2, 1, 0, 3, 5, 4}
	mapping, stall, err := RePlace(c, cfg, prior, network.CongestionStats{})
	if err != nil {
		t.Fatal(err)
	}
	if stall != 0 {
		t.Fatalf("contention-free probe reported stall %d", stall)
	}
	if !reflect.DeepEqual(mapping, prior) {
		t.Fatalf("empty feedback changed the mapping: %v -> %v", prior, mapping)
	}
}
