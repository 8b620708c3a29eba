package exp

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/placement"
	"dhisq/internal/sim"
)

// The remote experiment measures the cost surface of multi-chip execution:
// every cross-chip two-qubit gate compiles into an EPR-mediated teleported
// gate — pair generation, herald traffic over the contended fabric, and
// feed-forward corrections — so the chip partition decides how much of the
// circuit turns into inter-chip protocol. The sweep runs workload × chip
// count × EPR latency × partition policy and reports the cut size, the EPR
// pairs actually generated, and where the time went. The gate holds the
// interaction partitioner to the contract its never-worse fallback
// promises: cut size at most the contiguous identity split everywhere,
// strictly below it somewhere.

// RemotePoint is one (workload, chips, EPR latency, policy) cell.
type RemotePoint struct {
	Workload string `json:"workload"`
	Qubits   int    `json:"qubits"`
	// Chips is the partition size (1 = the single-chip baseline; its
	// cells pin the degenerate contract: zero cut, zero EPR pairs).
	Chips int `json:"chips"`
	// EPRLatency is the pair-generation latency in cycles.
	EPRLatency int64  `json:"epr_latency_cycles"`
	Policy     string `json:"policy"`
	// CutGates counts the original circuit's two-qubit gates that cross
	// the policy's chip partition — each becomes one teleported gate.
	CutGates int `json:"cut_gates"`
	// EPRPairs counts the pairs the chip actually generated during the
	// shot (teleported SWAPs expand to three pairs, so this can exceed
	// CutGates).
	EPRPairs  uint64 `json:"epr_pairs"`
	Makespan  int64  `json:"makespan_cycles"`
	NetStall  int64  `json:"net_stall_cycles"`
	SyncStall int64  `json:"sync_stall_cycles"`
}

// RemoteSweepWorkloads names the circuits the sweep runs: the GHZ chain
// (nearest-neighbor structure contiguous splits handle well), the QFT
// (all-to-all controlled phases — no partition is clean), and the
// distributed VQE ansatz (cross-half entangler rungs built to reward an
// interaction-aware partition).
func RemoteSweepWorkloads() []string { return []string{"ghz", "qft", "dvqe"} }

// RemoteSweep runs every workload on 1, 2 and 4 chips at EPR latencies of
// 40 and 200 cycles under the identity and the interaction partition, on
// the mesh at sweepLinkBW, and returns the points in deterministic
// (workload, chips, latency, policy) order.
func RemoteSweep(seed int64) ([]RemotePoint, error) {
	var out []RemotePoint
	for _, name := range RemoteSweepWorkloads() {
		c, err := sweepCircuit(name)
		if err != nil {
			return nil, err
		}
		for _, chips := range []int{1, 2, 4} {
			for _, lat := range []int64{40, 200} {
				for _, policy := range []string{placement.Default, "interaction"} {
					// The cut is a pure function of circuit, chip count
					// and policy — recomputed here so the report never
					// depends on compiler internals.
					chipOf, err := placement.PartitionChips(c, chips, policy)
					if err != nil {
						return nil, err
					}
					cfg := cellConfig(c.NumQubits, seed, sweepLinkBW)
					cfg.Placement = policy
					if chips > 1 {
						cfg.Chips = chips
						cfg.EPRLatency = sim.Time(lat)
					}
					res, err := runCell(c, nil, cfg) // the machine grows the mesh for the comm qubits
					if err != nil {
						return nil, fmt.Errorf("exp: remote %s chips=%d lat=%d %s: %w", name, chips, lat, policy, err)
					}
					out = append(out, RemotePoint{
						Workload:   name,
						Qubits:     c.NumQubits,
						Chips:      chips,
						EPRLatency: lat,
						Policy:     policy,
						CutGates:   circuit.RemoteGateCount(c, chipOf),
						EPRPairs:   res.EPRPairs,
						Makespan:   int64(res.Makespan),
						NetStall:   int64(res.NetStall),
						SyncStall:  int64(res.SyncStall),
					})
				}
			}
		}
	}
	return out, nil
}

// remoteGates holds the chip partition to its contract.
//
//   - cells: the sweep ran at least one.
//   - single_chip_clean: single-chip cells are exactly the legacy machine —
//     zero cut gates, zero EPR pairs.
//   - pairs_cover_cut: every multi-chip cell generated at least one EPR
//     pair per cut gate.
//   - cut_never_worse, cut_strictly_fewer: the interaction partition cuts
//     more gates than identity in no cell, and strictly fewer in at least
//     one.
func remoteGates(points []RemotePoint) []Gate {
	type cell struct {
		workload string
		chips    int
		lat      int64
	}
	byPolicy := map[cell]map[string]RemotePoint{}
	leaks, deficits := 0, 0
	for _, p := range points {
		if p.Chips <= 1 {
			if p.CutGates != 0 || p.EPRPairs != 0 {
				leaks++
			}
			continue
		}
		if p.EPRPairs < uint64(p.CutGates) {
			deficits++
		}
		k := cell{p.Workload, p.Chips, p.EPRLatency}
		if byPolicy[k] == nil {
			byPolicy[k] = map[string]RemotePoint{}
		}
		byPolicy[k][p.Policy] = p
	}
	worse, fewer := 0, 0
	for _, pols := range byPolicy {
		id, okD := pols[placement.Default]
		in, okI := pols["interaction"]
		if !okD || !okI {
			continue
		}
		if in.CutGates > id.CutGates {
			worse++
		}
		if in.CutGates < id.CutGates {
			fewer++
		}
	}
	return []Gate{
		NewGate("cells", float64(len(points)), ">=", 1),
		NewGate("single_chip_clean", float64(leaks), "==", 0),
		NewGate("pairs_cover_cut", float64(deficits), "==", 0),
		NewGate("cut_never_worse", float64(worse), "==", 0),
		NewGate("cut_strictly_fewer", float64(fewer), ">=", 1),
	}
}

var remoteCols = []column[RemotePoint]{
	{"workload", func(p RemotePoint) string { return p.Workload }},
	{"chips", func(p RemotePoint) string { return fmt.Sprint(p.Chips) }},
	{"epr(cy)", func(p RemotePoint) string { return fmt.Sprint(p.EPRLatency) }},
	{"policy", func(p RemotePoint) string { return p.Policy }},
	{"cut", func(p RemotePoint) string { return fmt.Sprint(p.CutGates) }},
	{"pairs", func(p RemotePoint) string { return fmt.Sprint(p.EPRPairs) }},
	{"makespan(cy)", func(p RemotePoint) string { return fmt.Sprint(p.Makespan) }},
	{"net stall(cy)", func(p RemotePoint) string { return fmt.Sprint(p.NetStall) }},
	{"sync(cy)", func(p RemotePoint) string { return fmt.Sprint(p.SyncStall) }},
}
