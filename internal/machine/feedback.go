package machine

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
	"dhisq/internal/placement"
)

// RePlace closes the compile↔fabric loop for one circuit: given the
// congestion digest measured under the prior mapping (nil = identity) — one
// shot's Result.Net, or many merged with CongestionStats.Merge — it generates
// stall-weighted candidate placements (placement.CongestionCandidates),
// probes each with a one-shot run, refines the winner by measured pairwise
// swaps, and returns the mapping with the lowest observed fabric stall
// alongside that stall count.
//
// The incumbent mapping is always candidate zero and ties keep the
// earliest candidate, so the result is never measurably worse than prior.
// Every step — candidate generation, probe order, swap order, strict-
// improvement acceptance — is deterministic, so an identical digest yields
// identical re-placed mappings (and therefore identical re-compiled
// programs) at any worker count.
//
// cfg must describe the machine the digest was measured on (mesh shape,
// contention model, backend, seed). With contention disabled, or with a
// digest that records no stall, the probe reads zero stall everywhere and
// the incumbent wins: RePlace degrades to a no-op rather than an error.
func RePlace(c *circuit.Circuit, cfg Config, prior []int, net network.CongestionStats) ([]int, int64, error) {
	topo, err := network.NewTopology(cfg.Net)
	if err != nil {
		return nil, 0, err
	}
	// Probes are single shots; event logging only costs.
	cfg.LogEvents = false
	incumbent := prior
	if incumbent == nil {
		incumbent = make([]int, c.NumQubits)
		for q := range incumbent {
			incumbent[q] = q
		}
	}

	probe := func(mapping []int) (int64, error) {
		m, err := NewForCircuit(c, cfg.Net.MeshW, cfg.Net.MeshH, cfg)
		if err != nil {
			return 0, err
		}
		cp, err := CompileUncached(c, mapping, m.Cfg)
		if err != nil {
			return 0, err
		}
		if err := m.Load(cp); err != nil {
			return 0, err
		}
		res, _, err := m.Shot(m.Cfg.Seed)
		if err != nil {
			return 0, err
		}
		return int64(res.Net.TotalStall()), nil
	}

	candidates := [][]int{incumbent}
	if net.TotalStall() > 0 {
		more, err := placement.CongestionCandidates(c, topo, incumbent, net.Links)
		if err != nil {
			return nil, 0, err
		}
		candidates = append(candidates, more...)
	}

	best, bestStall := -1, int64(0)
	for i, cand := range candidates {
		stall, err := probe(cand)
		if err != nil {
			return nil, 0, fmt.Errorf("machine: re-place probe %d: %w", i, err)
		}
		if best < 0 || stall < bestStall {
			best, bestStall = i, stall
		}
	}
	bestMap := append([]int(nil), candidates[best]...)
	if bestStall == 0 {
		return bestMap, 0, nil
	}

	// Measured swap descent: walk qubit pairs in fixed order, keep any swap
	// that strictly lowers the probed stall, and stop after a pass with no
	// improvement (or when the probe budget runs out). First-improvement in
	// a fixed order is deterministic.
	const maxPasses, maxProbes = 2, 512
	probes := 0
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for a := 0; a < c.NumQubits && probes < maxProbes; a++ {
			for b := a + 1; b < c.NumQubits && probes < maxProbes; b++ {
				bestMap[a], bestMap[b] = bestMap[b], bestMap[a]
				stall, err := probe(bestMap)
				probes++
				if err != nil {
					return nil, 0, fmt.Errorf("machine: re-place swap probe: %w", err)
				}
				if stall < bestStall {
					bestStall = stall
					improved = true
				} else {
					bestMap[a], bestMap[b] = bestMap[b], bestMap[a]
				}
			}
		}
		if !improved {
			break
		}
	}
	return bestMap, bestStall, nil
}
