package placement

import (
	"slices"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
)

// This file is the congestion-feedback side of placement: re-running the
// interaction partitioner with edge costs scaled by where a previous run's
// traffic actually queued — the per-link stalls of a
// network.CongestionStats digest.

// stallPressure folds the per-link loads into a per-controller pressure
// score: a link's stall charges both endpoints (the backlog forms at From,
// the traffic was bound for To — moving either side's qubits relieves it).
func stallPressure(n int, loads []network.LinkStat) []int64 {
	press := make([]int64, n)
	for _, l := range loads {
		if l.Stall <= 0 {
			continue
		}
		if l.From >= 0 && l.From < n {
			press[l.From] += l.Stall
		}
		if l.To >= 0 && l.To < n {
			press[l.To] += l.Stall
		}
	}
	return press
}

// congestionWeights scales the interaction graph by measured stall
// pressure under the prior mapping: an edge between two qubits whose
// controllers sat in congested corners of the mesh gets up to lambda
// times heavier, so the greedy partitioner pulls exactly those qubits
// closer together on the re-place. Weights stay integral (everything is
// scaled by a common factor of 8) so tie-breaking remains exact.
func congestionWeights(c *circuit.Circuit, topo *network.Topology, prior []int, loads []network.LinkStat, lambda int64) [][]int64 {
	w := interactionWeights(c)
	press := stallPressure(topo.N, loads)
	var maxP int64
	for _, p := range press {
		if p > maxP {
			maxP = p
		}
	}
	n := c.NumQubits
	at := func(q int) int64 {
		ctrl := q
		if prior != nil && q < len(prior) {
			ctrl = prior[q]
		}
		if ctrl < 0 || ctrl >= len(press) {
			return 0
		}
		return press[ctrl]
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if w[a][b] == 0 {
				continue
			}
			scale := int64(8)
			if maxP > 0 {
				scale += lambda * 8 * (at(a) + at(b)) / (2 * maxP)
			}
			w[a][b] *= scale
		}
	}
	return w
}

// CongestionCandidates is the deterministic candidate family a probe-based
// re-placer selects from: the interaction placement plus stall-weighted
// variants at increasing feedback gain. Duplicates are elided; order is
// stable (mildest gain first), so "ties keep the earliest candidate"
// selection is reproducible. With no stall signal every stall-weighted
// variant is the plain greedy placement.
//
// There is deliberately no never-worse fallback here: trading weighted
// distance for congestion balance is the point. The measured never-worse
// guarantee is the caller's, which probes candidates against the incumbent —
// that is machine.RePlace.
func CongestionCandidates(c *circuit.Circuit, topo *network.Topology, prior []int, loads []network.LinkStat) ([][]int, error) {
	if err := checkFits(c, topo); err != nil {
		return nil, err
	}
	n := c.NumQubits
	if n == 0 {
		return nil, nil
	}
	var out [][]int
	add := func(m []int) {
		for _, have := range out {
			if slices.Equal(have, m) {
				return
			}
		}
		out = append(out, m)
	}
	add(interaction(c, topo))
	for _, lambda := range []int64{1, 2, 4, 8} {
		add(greedyPlace(n, congestionWeights(c, topo, prior, loads, lambda), topo))
	}
	return out, nil
}
