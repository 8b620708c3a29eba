package exp

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/runner"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// What the experiments share: the seeded machine every cell starts from,
// the checked shot the paper figures run, and for the fabric-family sweeps
// (fabric, placement, feedback, remote) the circuits they name, how one
// cell runs, and the congestion counters a cell reports.

// sweepQubits is every sweep workload's size.
const sweepQubits = 16

// sweepLinkBW is the link occupancy, in cycles per message, of the
// placement, feedback and remote sweeps: finite bandwidth is the regime
// placement matters in, and one value keeps their envelopes comparable.
const sweepLinkBW sim.Time = 4

// sweepCircuit builds the named sweep workload on sweepQubits qubits.
func sweepCircuit(name string) (*circuit.Circuit, error) {
	n := sweepQubits
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
// CNOTs from every data qubit into the last qubit — a hub the identity
// placement parks in the mesh corner — then full measurement.
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

// runChecked runs one shot of b through the shot-execution subsystem at
// cfg.Seed and fails, naming every count, if the shot broke any of the four
// timing invariants: co-commitment misalignments, window violations,
// overlaps and order inversions.
func runChecked(b workloads.Benchmark, cfg machine.Config) (machine.Result, error) {
	set, err := runner.Run(runner.Spec{
		Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH,
		Mapping: b.Mapping, Cfg: cfg,
	}, 1, 1)
	if err != nil {
		return machine.Result{}, err
	}
	res := set.Shots[0].Result
	if res.Misalignments != 0 || res.Violations != 0 || res.Overlaps != 0 || res.Inversions != 0 {
		return res, fmt.Errorf("invariant broken: %d misalignments, %d violations, %d overlaps, %d inversions",
			res.Misalignments, res.Violations, res.Overlaps, res.Inversions)
	}
	return res, nil
}

// cellConfig is the machine every experiment cell starts from: the seeded
// backend (the experiments study timing, not state) on the default mesh
// for n qubits with each link occupied ser cycles per message (0 =
// infinite bandwidth, the machine's default).
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
