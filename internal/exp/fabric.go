package exp

import (
	"fmt"

	"dhisq/internal/network"
	"dhisq/internal/sim"
)

// The fabric experiment is the topology/bandwidth study the contention
// model exists for: the same workloads executed across every intra-layer
// topology and a sweep of link bandwidths, reporting how congestion —
// queueing stalls, backlog depth, router utilization — grows as bandwidth
// shrinks and how topology choice shifts where traffic piles up.

// FabricPoint is one (workload, topology, bandwidth) cell of the sweep.
type FabricPoint struct {
	Workload string `json:"workload"`
	Qubits   int    `json:"qubits"`
	Topology string `json:"topology"`
	// LinkSerialization is the cycles one message occupies a link or
	// router port (0 = infinite bandwidth, the contention-free baseline).
	LinkSerialization int64 `json:"link_serialization_cycles"`
	Counters
	NetStall     int64  `json:"net_stall_cycles"` // charged to controller traffic
	LinkMessages uint64 `json:"link_messages"`
	PortMessages uint64 `json:"port_messages"`
	// Misalignments counts two-qubit co-commitment failures: congestion
	// that delays one side of a calibrated sync past its window breaks
	// the paper's core timing guarantee, and this is where it shows.
	Misalignments int `json:"misalignments"`
}

// FabricOptions parameterizes the sweep. Zero values pick the defaults
// used by dhisq-bench -exp fabric.
type FabricOptions struct {
	Qubits         int   // workload size (default 16)
	Seed           int64 // backend seed (default 1)
	Topologies     []network.TopologyKind
	Serializations []sim.Time // link occupancies to sweep (must include 0 to anchor the baseline)
}

// FabricSweepWorkloads names the circuits the sweep runs.
func FabricSweepWorkloads() []string { return []string{"ghz", "qft", "bv"} }

// FabricSweep runs the full grid and returns one point per cell, in
// deterministic (workload, topology, serialization) order.
func FabricSweep(opt FabricOptions) ([]FabricPoint, error) {
	if opt.Qubits <= 0 {
		opt.Qubits = 16
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Topologies == nil {
		opt.Topologies = []network.TopologyKind{network.TopoMesh, network.TopoTorus, network.TopoTree}
	}
	if opt.Serializations == nil {
		opt.Serializations = []sim.Time{0, 1, 2, 4, 8, 16}
	}
	var out []FabricPoint
	for _, name := range FabricSweepWorkloads() {
		c, err := sweepCircuit(name, opt.Qubits)
		if err != nil {
			return nil, err
		}
		for _, topo := range opt.Topologies {
			for _, ser := range opt.Serializations {
				cfg := cellConfig(c.NumQubits, opt.Seed, ser)
				cfg.Net.Topology = topo
				res, err := runCell(c, nil, cfg)
				if err != nil {
					return nil, fmt.Errorf("exp: fabric %s/%s/ser=%d: %w", name, topo, ser, err)
				}
				out = append(out, FabricPoint{
					Workload:          name,
					Qubits:            c.NumQubits,
					Topology:          topo.String(),
					LinkSerialization: int64(ser),
					Counters:          countersOf(res),
					NetStall:          int64(res.NetStall),
					LinkMessages:      res.Net.LinkMessages,
					PortMessages:      res.Net.PortMessages,
					Misalignments:     res.Misalignments,
				})
			}
		}
	}
	return out, nil
}

// fabricGates holds the sweep to its headline property. Points must be in
// FabricSweep order.
//
//   - anchor_stall_free: no zero-serialization cell records a stall cycle
//     or a misalignment — contention off means contention-free.
//   - stall_monotone: within every (workload, topology) series, total
//     stall cycles never shrink as the link bandwidth shrinks.
func fabricGates(points []FabricPoint) []Gate {
	type seriesKey struct{ w, t string }
	last := map[seriesKey]FabricPoint{}
	dirtyAnchors, shrinks := 0, 0
	for _, p := range points {
		k := seriesKey{p.Workload, p.Topology}
		if p.LinkSerialization == 0 && (p.TotalStall != 0 || p.Misalignments != 0) {
			dirtyAnchors++
		}
		if prev, ok := last[k]; ok && p.LinkSerialization > prev.LinkSerialization && p.TotalStall < prev.TotalStall {
			shrinks++
		}
		last[k] = p
	}
	return []Gate{
		NewGate("anchor_stall_free", float64(dirtyAnchors), "==", 0),
		NewGate("stall_monotone", float64(shrinks), "==", 0),
	}
}

var fabricCols = []column[FabricPoint]{
	{"workload", func(p FabricPoint) string { return p.Workload }},
	{"topology", func(p FabricPoint) string { return p.Topology }},
	{"ser(cy)", func(p FabricPoint) string { return fmt.Sprint(p.LinkSerialization) }},
	{"makespan(cy)", func(p FabricPoint) string { return fmt.Sprint(p.Makespan) }},
	{"stall(cy)", func(p FabricPoint) string { return fmt.Sprint(p.TotalStall) }},
	{"maxq", func(p FabricPoint) string { return fmt.Sprint(p.MaxQueue) }},
	{"port util", func(p FabricPoint) string { return fmt.Sprintf("%.3f", p.RouterUtilization) }},
	{"misalign", func(p FabricPoint) string { return fmt.Sprint(p.Misalignments) }},
}
