package exp

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// What the fabric-family sweeps (fabric, placement, feedback, remote)
// share: the circuits they name, how one cell runs, and the congestion
// counters a cell reports.

// sweepCircuit builds the named sweep workload on n qubits.
func sweepCircuit(name string, n int) (*circuit.Circuit, error) {
	switch name {
	case "ghz":
		return workloads.GHZ(n), nil
	case "qft":
		return workloads.QFT(n), nil
	case "bv":
		return workloads.BV(n, workloads.AlternatingSecret), nil
	case "hotspot":
		return hotspotCircuit(n), nil
	case "dvqe":
		// The sweeps measure compiled structure, not angles; the ansatz
		// is bound at sweep point 0 (angle sweeps go through the service's
		// params path instead).
		return workloads.DistributedVQE(n, 2).Bind(workloads.DistributedVQEPoint(n, 2, 0))
	}
	return nil, fmt.Errorf("exp: unknown sweep workload %q", name)
}

// hotspotCircuit builds the adversarial star workload: three rounds of
// CNOTs from every data qubit into the last qubit — a hub row-major order
// parks in the mesh corner — then full measurement.
func hotspotCircuit(n int) *circuit.Circuit {
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

// cellConfig is the machine every cell starts from: the seeded backend
// (the sweeps study timing, not state) on the default mesh for n qubits
// with each link occupied ser cycles per message.
func cellConfig(n int, seed int64, ser sim.Time) machine.Config {
	cfg := machine.DefaultConfig(n)
	cfg.Backend = machine.BackendSeeded
	cfg.Seed = seed
	cfg.Net.LinkSerialization = ser
	return cfg
}

// runCell compiles c for cfg's fabric (mapping nil = cfg.Placement
// decides) and runs one shot at cfg.Seed.
func runCell(c *circuit.Circuit, mapping []int, cfg machine.Config) (machine.Result, error) {
	res, _, err := machine.RunCircuit(c, cfg.Net.MeshW, cfg.Net.MeshH, mapping, cfg)
	return res, err
}

// Counters is where a cell's simulated cycles went.
type Counters struct {
	Makespan          int64   `json:"makespan_cycles"`
	TotalStall        int64   `json:"total_stall_cycles"` // links + router ports, all traffic
	SyncStall         int64   `json:"sync_stall_cycles"`
	MaxQueue          int     `json:"max_queue_depth"`
	RouterUtilization float64 `json:"router_utilization"`
}

func countersOf(res machine.Result) Counters {
	return Counters{
		Makespan:          int64(res.Makespan),
		TotalStall:        int64(res.Net.TotalStall()),
		SyncStall:         int64(res.SyncStall),
		MaxQueue:          res.Net.MaxQueue(),
		RouterUtilization: res.RouterUtilization,
	}
}
