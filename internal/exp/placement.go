package exp

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
	"dhisq/internal/placement"
)

// The placement experiment measures what the compilation pipeline's Place
// pass buys under finite link bandwidth: the same workloads compiled with
// the identity baseline versus the interaction-aware partitioner, on the
// same contended fabric. Better placement shortens calibrated sync windows
// and keeps feed-forward traffic local, which shows up as lower makespan
// and fewer queueing stall cycles.

// PlacementPoint is one (workload, policy) cell of the sweep.
type PlacementPoint struct {
	Workload string `json:"workload"`
	Qubits   int    `json:"qubits"`
	Policy   string `json:"policy"`
	// LinkSerialization is the cycles one message occupies a link or
	// router port — finite bandwidth is the regime placement matters in.
	LinkSerialization int64 `json:"link_serialization_cycles"`
	// MappingCost is the placer's objective: total interaction weight ×
	// mesh distance of the mapping the artifact compiled with.
	MappingCost int64 `json:"mapping_cost"`
	Counters
	NetStall      int64 `json:"net_stall_cycles"` // charged to controller traffic
	Misalignments int   `json:"misalignments"`
}

// PlacementSweepWorkloads names the circuits the sweep runs. hotspot is
// the adversarial star circuit — every data qubit talks to a hub that
// the identity placement parks in the mesh corner — the workload the gates
// hold the interaction placer to.
func PlacementSweepWorkloads() []string { return []string{"ghz", "qft", "bv", "hotspot"} }

// PlacementSweep runs every workload under the identity and the
// interaction placer on the mesh at sweepLinkBW and returns the points in
// deterministic (workload, policy) order.
func PlacementSweep(seed int64) ([]PlacementPoint, error) {
	var out []PlacementPoint
	for _, name := range PlacementSweepWorkloads() {
		c, err := sweepCircuit(name)
		if err != nil {
			return nil, err
		}
		for _, policy := range []string{placement.Default, "interaction"} {
			cfg := cellConfig(c.NumQubits, seed, sweepLinkBW)
			cfg.Placement = policy
			res, err := runCell(c, nil, cfg)
			if err != nil {
				return nil, fmt.Errorf("exp: placement %s/%s: %w", name, policy, err)
			}
			cost, err := mappingCost(c, policy, cfg.Net)
			if err != nil {
				return nil, err
			}
			out = append(out, PlacementPoint{
				Workload:          name,
				Qubits:            c.NumQubits,
				Policy:            policy,
				LinkSerialization: int64(sweepLinkBW),
				MappingCost:       cost,
				Counters:          countersOf(res),
				NetStall:          int64(res.NetStall),
				Misalignments:     res.Misalignments,
			})
		}
	}
	return out, nil
}

// mappingCost recomputes the weighted-distance objective of the policy's
// mapping for the report (the compiled artifact records the mapping, but
// recomputing from the policy keeps this a pure function of the inputs).
func mappingCost(c *circuit.Circuit, policy string, net network.Config) (int64, error) {
	topo, err := network.NewTopology(net)
	if err != nil {
		return 0, err
	}
	m, err := placement.Place(policy, c, topo)
	if err != nil {
		return 0, err
	}
	return placement.CircuitCost(c, m, topo), nil
}

// placementGates compares the interaction placer with the identity
// baseline, workload by workload; a sweep without both policies has
// nothing to compare and no gates.
//
//   - hotspot_stall, hotspot_makespan: on the hotspot the interaction
//     placer exceeds identity in neither total stall cycles nor makespan.
//   - strict_improvement: at least one workload is strictly better in one
//     of the two.
func placementGates(points []PlacementPoint) []Gate {
	byPolicy := map[string]map[string]PlacementPoint{}
	for _, p := range points {
		if byPolicy[p.Workload] == nil {
			byPolicy[p.Workload] = map[string]PlacementPoint{}
		}
		byPolicy[p.Workload][p.Policy] = p
	}
	var gates []Gate
	pairs, improved := 0, 0
	for _, w := range PlacementSweepWorkloads() {
		id, okD := byPolicy[w][placement.Default]
		in, okI := byPolicy[w]["interaction"]
		if !okD || !okI {
			continue
		}
		pairs++
		if w == "hotspot" {
			gates = append(gates,
				NewGate("hotspot_stall", float64(in.TotalStall), "<=", float64(id.TotalStall)),
				NewGate("hotspot_makespan", float64(in.Makespan), "<=", float64(id.Makespan)))
		}
		if in.TotalStall < id.TotalStall || in.Makespan < id.Makespan {
			improved++
		}
	}
	if pairs == 0 {
		return nil
	}
	return append(gates, NewGate("strict_improvement", float64(improved), ">=", 1))
}

var placementCols = []column[PlacementPoint]{
	{"workload", func(p PlacementPoint) string { return p.Workload }},
	{"policy", func(p PlacementPoint) string { return p.Policy }},
	{"map cost", func(p PlacementPoint) string { return fmt.Sprint(p.MappingCost) }},
	{"makespan(cy)", func(p PlacementPoint) string { return fmt.Sprint(p.Makespan) }},
	{"stall(cy)", func(p PlacementPoint) string { return fmt.Sprint(p.TotalStall) }},
	{"sync(cy)", func(p PlacementPoint) string { return fmt.Sprint(p.SyncStall) }},
	{"maxq", func(p PlacementPoint) string { return fmt.Sprint(p.MaxQueue) }},
	{"misalign", func(p PlacementPoint) string { return fmt.Sprint(p.Misalignments) }},
}
