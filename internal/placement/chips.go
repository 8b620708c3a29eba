package placement

import (
	"fmt"

	"dhisq/internal/circuit"
)

// This file holds the chip-level partitioner of the multi-chip model
// (DESIGN.md §12): before controller placement, the Place pass splits the
// data qubits across chips, and every two-qubit gate whose operands land on
// different chips becomes an EPR-mediated remote gate. The objective is
// therefore the cut size — the number of gates teleported — not mesh
// distance, so the partitioner is separate from the controller placers
// above, but it reuses their policy names: "identity" cuts the qubit range
// into contiguous blocks, "interaction" runs a greedy balanced
// min-cut over the same interaction weights.

// ContiguousChips is the baseline partition: qubit q on chip q*chips/n,
// blocks as equal as possible, in index order.
func ContiguousChips(n, chips int) []int {
	chipOf := make([]int, n)
	for q := range chipOf {
		chipOf[q] = q * chips / n
	}
	return chipOf
}

// PartitionChips assigns each of c's qubits to one of chips chips under the
// named placement policy. "identity" (and "") returns the contiguous-block
// baseline; "interaction" runs a greedy balanced min-cut
// and falls back to the baseline when greedy loses on the cut objective, so
// the cut-minimizing partition is never worse than contiguous by
// construction. Deterministic for a fixed (circuit, chips, policy) — the
// partition is hashed into the artifact fingerprint.
func PartitionChips(c *circuit.Circuit, chips int, policy string) ([]int, error) {
	if err := Valid(policy); err != nil {
		return nil, err
	}
	n := c.NumQubits
	if chips < 1 {
		return nil, fmt.Errorf("placement: %d chips", chips)
	}
	if chips > n {
		return nil, fmt.Errorf("placement: %d chips exceed %d qubits", chips, n)
	}
	contiguous := ContiguousChips(n, chips)
	if chips == 1 || policy == "" || policy == Default {
		return contiguous, nil
	}

	// Greedy balanced min-cut: qubits in descending total interaction
	// weight, each assigned to the chip (with remaining capacity) holding
	// the most weight toward already-assigned qubits. Capacities mirror the
	// contiguous block sizes so both policies compare like for like.
	w := pairWeights(c)
	totalW := make([]int64, n)
	for a := range w {
		for b := range w[a] {
			totalW[a] += w[a][b]
		}
	}
	order := make([]int, n)
	for q := range order {
		order[q] = q
	}
	for i := 1; i < n; i++ { // insertion sort: stable, deterministic, tiny n
		for j := i; j > 0 && totalW[order[j]] > totalW[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	capacity := make([]int, chips)
	for _, j := range contiguous {
		capacity[j]++
	}
	chipOf := make([]int, n)
	for q := range chipOf {
		chipOf[q] = -1
	}
	for _, q := range order {
		bestChip, bestGain := -1, int64(-1)
		for j := 0; j < chips; j++ {
			if capacity[j] == 0 {
				continue
			}
			var gain int64
			for p := 0; p < n; p++ {
				if chipOf[p] == j {
					gain += w[q][p]
				}
			}
			if gain > bestGain {
				bestChip, bestGain = j, gain
			}
		}
		chipOf[q] = bestChip
		capacity[bestChip]--
	}

	// Greedy alone grows one blob along whatever structure it meets first
	// and gets stuck in local minima (a chain workload with cross-half
	// rungs defeats it entirely), so refine both the greedy assignment and
	// the contiguous baseline with Kernighan–Lin passes and keep whichever
	// cuts less. KL is O(passes × n²) per chip pair; beyond the guard size
	// the unrefined greedy-vs-contiguous comparison stands alone.
	if n <= klMaxQubits {
		klRefine(w, chipOf, chips)
		refined := append([]int(nil), contiguous...)
		klRefine(w, refined, chips)
		if circuit.RemoteGateCount(c, refined) < circuit.RemoteGateCount(c, chipOf) {
			chipOf = refined
		}
	}

	// Never-worse guarantee on the objective (cf. interaction).
	if circuit.RemoteGateCount(c, chipOf) > circuit.RemoteGateCount(c, contiguous) {
		return contiguous, nil
	}
	return chipOf, nil
}

// klMaxQubits bounds the KL refinement: above this the quadratic passes
// stop being compile-time noise, and the greedy/contiguous comparison is
// used as computed.
const klMaxQubits = 512

// pairWeights counts the two-qubit ops between every qubit pair — the
// exact objective circuit.RemoteGateCount totals, unlike
// interactionWeights, which also carries feed-forward edges that no chip
// boundary can cut.
func pairWeights(c *circuit.Circuit) [][]int64 {
	n := c.NumQubits
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for _, op := range c.Ops {
		if op.Kind.IsTwoQubit() && len(op.Qubits) == 2 {
			a, b := op.Qubits[0], op.Qubits[1]
			w[a][b]++
			w[b][a]++
		}
	}
	return w
}

// klRefine improves the partition in place with Kernighan–Lin passes over
// every chip pair: tentative locked swaps that may go uphill mid-pass,
// keeping the best prefix — which escapes exactly the local minima greedy
// hill-climbing cannot. Block sizes are preserved (every move is a swap),
// and the procedure is deterministic: ties break on the lowest qubit
// index, passes run in fixed chip-pair order until no pair improves.
func klRefine(w [][]int64, chipOf []int, chips int) {
	improved := true
	for round := 0; improved && round < 4; round++ {
		improved = false
		for i := 0; i < chips; i++ {
			for j := i + 1; j < chips; j++ {
				for klPass(w, chipOf, i, j) {
					improved = true
				}
			}
		}
	}
}

// klPass runs one Kernighan–Lin pass between chips i and j, returning
// whether it applied a strict improvement.
func klPass(w [][]int64, chipOf []int, i, j int) bool {
	var a, b []int
	for q, ch := range chipOf {
		switch ch {
		case i:
			a = append(a, q)
		case j:
			b = append(b, q)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	// D[q] = external - internal weight of q relative to the (i, j) pair;
	// edges to other chips are unaffected by any i<->j swap.
	d := map[int]int64{}
	for _, q := range append(append([]int(nil), a...), b...) {
		var ext, int_ int64
		other := j
		if chipOf[q] == j {
			other = i
		}
		for p, ch := range chipOf {
			switch ch {
			case chipOf[q]:
				int_ += w[q][p]
			case other:
				ext += w[q][p]
			}
		}
		d[q] = ext - int_
	}
	locked := map[int]bool{}
	type swap struct{ qa, qb int }
	var swaps []swap
	var gains []int64
	steps := len(a)
	if len(b) < steps {
		steps = len(b)
	}
	for s := 0; s < steps; s++ {
		bestGain := int64(-1 << 62)
		bestA, bestB := -1, -1
		for _, qa := range a {
			if locked[qa] {
				continue
			}
			for _, qb := range b {
				if locked[qb] {
					continue
				}
				if g := d[qa] + d[qb] - 2*w[qa][qb]; g > bestGain {
					bestGain, bestA, bestB = g, qa, qb
				}
			}
		}
		if bestA < 0 {
			break
		}
		locked[bestA], locked[bestB] = true, true
		swaps = append(swaps, swap{bestA, bestB})
		gains = append(gains, bestGain)
		// Update D for unlocked members as if the swap were applied.
		for _, q := range a {
			if !locked[q] {
				d[q] += 2*w[q][bestA] - 2*w[q][bestB]
			}
		}
		for _, q := range b {
			if !locked[q] {
				d[q] += 2*w[q][bestB] - 2*w[q][bestA]
			}
		}
	}
	// Best prefix of cumulative gain; apply only if strictly positive.
	bestK, bestSum, sum := 0, int64(0), int64(0)
	for k, g := range gains {
		sum += g
		if sum > bestSum {
			bestK, bestSum = k+1, sum
		}
	}
	if bestK == 0 {
		return false
	}
	for _, sw := range swaps[:bestK] {
		chipOf[sw.qa], chipOf[sw.qb] = chipOf[sw.qb], chipOf[sw.qa]
	}
	return true
}
