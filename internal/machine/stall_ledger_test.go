package machine

import (
	"fmt"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// stallHub is the hotspot workload: every data qubit CNOTs into one hub
// qubit three times over, so the hub's links and ports queue under finite
// bandwidth.
func stallHub(n int) *circuit.Circuit {
	c := circuit.New(n)
	h := n - 1
	for round := 0; round < 3; round++ {
		for q := 0; q < n-1; q++ {
			c.CNOT(q, h)
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// stallRow is what TestStallLedgerPinned holds for one run.
type stallRow struct {
	Makespan, SyncStall, RecvStall, NetStall, TotalStall, CollectiveCycles sim.Time
}

func (r stallRow) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d}",
		r.Makespan, r.SyncStall, r.RecvStall, r.NetStall, r.TotalStall, r.CollectiveCycles)
}

// TestStallLedgerPinned holds every stall figure a run reports — sync,
// recv and controller-originated net stalls, the fabric's total queueing
// and the post-run collective's cycles — on workloads that exercise each
// cause, at seeds 1..3. The torus cell has router-originated waits
// (NetStall < TotalStall); the collective cell has reduce-phase waits that
// NetStall must not count; only the feed-forward cells stall on recv.
func TestStallLedgerPinned(t *testing.T) {
	qft, err := workloads.Dynamic(workloads.QFT(9))
	if err != nil {
		t.Fatal(err)
	}
	dvqe, err := workloads.DistributedVQE(6, 2).Bind(workloads.DistributedVQEPoint(6, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	hub := stallHub(16)
	cells := []struct {
		name string
		c    *circuit.Circuit
		set  func(*Config)
		want [3]stallRow // seeds 1, 2, 3
	}{
		{"ghz16", workloads.GHZ(16), func(*Config) {}, [3]stallRow{{259, 1077, 0, 0, 0, 0}, {259, 1077, 0, 0, 0, 0}, {259, 1077, 0, 0, 0, 0}}},
		{"hub/mesh", hub, func(cfg *Config) { cfg.Net.LinkSerialization = 4 }, [3]stallRow{{570, 5392, 0, 484, 484, 0}, {570, 5392, 0, 484, 484, 0}, {570, 5392, 0, 484, 484, 0}}},
		{"hub/tree", hub, func(cfg *Config) {
			cfg.Net.LinkSerialization = 4
			cfg.Net.Topology = network.TopoTree
		}, [3]stallRow{{888, 9235, 0, 1676, 1676, 0}, {888, 9235, 0, 1676, 1676, 0}, {888, 9235, 0, 1676, 1676, 0}}},
		{"hub/torus/1port", hub, func(cfg *Config) {
			cfg.Net.LinkSerialization = 4
			cfg.Net.Topology = network.TopoTorus
			cfg.Net.RouterPorts = 1
		}, [3]stallRow{{605, 5998, 0, 174, 318, 0}, {605, 5998, 0, 174, 318, 0}, {605, 5998, 0, 174, 318, 0}}},
		{"hub/tree/collective", hub, func(cfg *Config) {
			cfg.Net.LinkSerialization = 4
			cfg.Net.Topology = network.TopoTree
			cfg.Collective = "tree"
		}, [3]stallRow{{888, 9235, 0, 1676, 1736, 44}, {888, 9235, 0, 1676, 1736, 44}, {888, 9235, 0, 1676, 1736, 44}}},
		{"bv16", workloads.BV(16, workloads.AlternatingSecret), func(cfg *Config) {
			cfg.Net.LinkSerialization = 4
		}, [3]stallRow{{201, 316, 0, 88, 88, 0}, {201, 316, 0, 88, 88, 0}, {201, 316, 0, 88, 88, 0}}},
		{"dynamic_qft9/1port", qft, func(cfg *Config) {
			cfg.Net.LinkSerialization = 2
			cfg.Net.RouterPorts = 1
		}, [3]stallRow{{5350, 39256, 24879, 525, 611, 0}, {5342, 39555, 25015, 599, 685, 0}, {5281, 38913, 24654, 571, 657, 0}}},
		{"dvqe6/2chips", dvqe, func(cfg *Config) {
			cfg.Net.LinkSerialization = 2
			cfg.Chips = 2
		}, [3]stallRow{{2929, 12963, 9113, 5, 5, 0}, {2951, 12875, 9072, 5, 5, 0}, {2995, 13249, 9248, 5, 5, 0}}},
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			w, h := network.NearSquareMesh(tc.c.NumQubits)
			for i, want := range tc.want {
				cfg := DefaultConfig(tc.c.NumQubits)
				cfg.Backend = BackendSeeded
				cfg.Seed = int64(i + 1)
				tc.set(&cfg)
				res, _, err := RunCircuit(tc.c, w, h, nil, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", cfg.Seed, err)
				}
				got := stallRow{res.Makespan, res.SyncStall, res.RecvStall, res.NetStall,
					res.Net.TotalStall(), res.CollectiveCycles}
				if got != want {
					t.Errorf("seed %d: got %v, want %v", cfg.Seed, got, want)
				}
			}
		})
	}
}
