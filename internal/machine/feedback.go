package machine

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/sim"
)

// RePlace searches for a mapping of c that finishes sooner on cfg's
// machine: starting from prior (nil = identity), it walks qubit pairs in
// fixed order, probes each swap with a one-shot run, and keeps a swap
// when it lowers the probed makespan — the paper's metric (§2.1.2, §6.4)
// — or keeps the makespan and lowers the fabric stall. It returns the
// best mapping and its makespan.
//
// Only strict improvements are kept, so the incumbent wins every tie and
// the result is never measurably worse than prior. Every step — swap
// order, acceptance, the probe budget — is deterministic, so identical
// inputs yield identical mappings (and therefore identical re-compiled
// programs) at any worker count.
//
// cfg must describe the machine to place for (mesh shape, contention
// model, backend, seed): the search reads that machine's runs, not a
// cost model.
func RePlace(c *circuit.Circuit, cfg Config, prior []int) ([]int, sim.Time, error) {
	// Probes are single shots; event logging only costs.
	cfg.LogEvents = false
	probe := func(mapping []int) (sim.Time, sim.Time, error) {
		m, err := NewForCircuit(c, cfg.Net.MeshW, cfg.Net.MeshH, cfg)
		if err != nil {
			return 0, 0, err
		}
		cp, err := CompileUncached(c, mapping, m.Cfg)
		if err != nil {
			return 0, 0, err
		}
		if err := m.Load(cp); err != nil {
			return 0, 0, err
		}
		res, _, err := m.Shot(m.Cfg.Seed)
		return res.Makespan, res.Net.TotalStall(), err
	}

	best := append([]int(nil), prior...)
	if prior == nil {
		best = make([]int, c.NumQubits)
		for q := range best {
			best[q] = q
		}
	}
	bestSpan, bestStall, err := probe(best)
	if err != nil {
		return nil, 0, fmt.Errorf("machine: re-place probe: %w", err)
	}

	// First-improvement swap descent: stop after a pass with no
	// improvement, or when the probe budget runs out.
	const maxPasses, maxProbes = 2, 512
	probes := 0
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for a := 0; a < c.NumQubits && probes < maxProbes; a++ {
			for b := a + 1; b < c.NumQubits && probes < maxProbes; b++ {
				best[a], best[b] = best[b], best[a]
				span, stall, err := probe(best)
				probes++
				if err != nil {
					return nil, 0, fmt.Errorf("machine: re-place swap probe: %w", err)
				}
				if span < bestSpan || span == bestSpan && stall < bestStall {
					bestSpan, bestStall = span, stall
					improved = true
				} else {
					best[a], best[b] = best[b], best[a]
				}
			}
		}
		if !improved {
			break
		}
	}
	return best, bestSpan, nil
}
