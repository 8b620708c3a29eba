package machine

import (
	"testing"

	"dhisq/internal/workloads"
)

// TestKeyForBuildsNoTopology: admission fingerprints a job with one buffer
// and one hash — the root router and controller count are arithmetic on the
// mesh (network.Config.Shape), so no topology is built to read them. 23
// allocations for ghz_n8 when KeyFor went through network.NewTopology.
func TestKeyForBuildsNoTopology(t *testing.T) {
	c := workloads.GHZ(8)
	cfg := DefaultConfig(8)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := KeyFor(c, nil, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("KeyFor allocates %.0f times per call, want <= 2", allocs)
	}
}

// TestKeyIsTheMachinesKey: the key normalizes the config it is handed, so a
// caller that sized the mesh for the data qubits only — or left the backend
// on Auto — still gets the key of the machine NewForCircuit builds.
func TestKeyIsTheMachinesKey(t *testing.T) {
	c := workloads.GHZ(13)
	raw := DefaultConfig(13) // a 4x4 mesh
	raw.Chips = 4            // 13 + 4 = 17 qubits: 4x4 no longer fits
	m, err := NewForCircuit(c, raw.Net.MeshW, raw.Net.MeshH, raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.Net.MeshW*m.Cfg.Net.MeshH < 17 {
		t.Fatalf("machine mesh %dx%d does not hold 17 qubits", m.Cfg.Net.MeshW, m.Cfg.Net.MeshH)
	}
	fromRaw, err := KeyFor(c, nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	fromMachine, err := KeyFor(c, nil, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromRaw != fromMachine {
		t.Fatal("the key of a raw config differs from the key of the machine built from it")
	}
	again, err := Normalize(c, m.Cfg.Net.MeshW, m.Cfg.Net.MeshH, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != m.Cfg {
		t.Fatalf("Normalize is not idempotent:\n once  %+v\n twice %+v", m.Cfg, again)
	}
}
