// Package placement holds the qubit→controller placement policies of the
// compilation pipeline (internal/compiler's Place pass). A policy turns a
// circuit plus the built fabric topology into a mapping slice — the same
// mapping[] the compiler, the artifact cache and the job service already
// speak — so the choice of placer is a named, cacheable compilation input
// rather than ad-hoc call-site logic.
//
// Two policies ship, one row each in the policies table:
//
//   - identity: qubit q runs on controller q, expressed as a nil mapping.
//     This is the legacy behavior byte-for-byte — nil is what every
//     pre-pipeline call site passed, and the artifact cache deliberately
//     distinguishes nil from an explicit identity permutation.
//   - interaction: a greedy interaction-graph partitioner. Qubit pairs are
//     weighted by how often they interact (two-qubit gates, plus classical
//     feed-forward traffic between a measured bit's owner and its
//     consumer), and qubits are placed heaviest-first onto the controller
//     minimizing the weighted mesh distance to their already-placed
//     partners. Co-locating chatty qubits shortens calibrated sync windows
//     and cuts inter-controller messages — and therefore queueing stalls
//     once link bandwidth is finite (network.Config.LinkSerialization > 0).
//
// Policies are deterministic: the same (circuit, topology) input always
// yields the same mapping, which is what makes a policy name safe to hash
// into the artifact fingerprint (internal/artifact keyVersion 3).
package placement

import (
	"fmt"
	"sort"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
	"dhisq/internal/registry"
)

// policy declares one placement policy: place computes the mapping for a
// circuit that fits the topology. A nil mapping means identity (qubit q on
// controller q) — the compiler and artifact cache both honor that
// convention. place must be deterministic and return either nil or a slice
// of length c.NumQubits whose entries are distinct controllers in
// [0, topo.N).
type policy struct {
	name  string
	place func(*circuit.Circuit, *network.Topology) []int
}

// Default is the policy an empty name resolves to: the legacy identity
// placement, guaranteed byte-identical to the pre-pipeline compiler.
const Default = "identity"

// policies is the fixed registry, in documentation order.
var policies = []policy{
	{"identity", func(*circuit.Circuit, *network.Topology) []int { return nil }},
	{"interaction", interaction},
}

func policyName(p policy) string { return p.name }

// Names lists the registered policies in stable order.
func Names() []string { return registry.Names(policies, policyName) }

// Valid reports whether name resolves to a registered policy ("" counts —
// it resolves to Default). The client-side check dhisq-sim -serve runs
// before a submission travels to the daemon. Unknown names error with the
// valid set, so CLI and API validation share one message.
func Valid(name string) error {
	_, err := lookup(name)
	return err
}

func lookup(name string) (policy, error) {
	return registry.Lookup("placement policy", name, Default, policies, policyName)
}

// Place computes the mapping the named policy ("" = Default) gives c on
// topo.
func Place(name string, c *circuit.Circuit, topo *network.Topology) ([]int, error) {
	p, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := checkFits(c, topo); err != nil {
		return nil, err
	}
	return p.place(c, topo), nil
}

// AutoMesh picks controller-mesh dimensions for an n-qubit circuit whose
// caller didn't fix them: the smallest near-square mesh that fits n. This
// is the single mesh heuristic of the stack — the facade's Sample, the job
// service and dhisq-sim all route through it, so the same circuit
// fingerprints identically at every entry point. Every current policy
// places onto this shape; a future device-shaped policy would grow a
// per-policy hook here.
func AutoMesh(n int) (w, h int) { return network.NearSquareMesh(n) }

// checkFits validates the common preconditions.
func checkFits(c *circuit.Circuit, topo *network.Topology) error {
	if c == nil {
		return fmt.Errorf("placement: nil circuit")
	}
	if topo == nil {
		return fmt.Errorf("placement: nil topology")
	}
	if c.NumQubits > topo.N {
		return fmt.Errorf("placement: %d qubits exceed %d controllers", c.NumQubits, topo.N)
	}
	return nil
}

// identityMapping is the identity assignment written out: qubit q on
// controller q, mesh position q in row-major order.
func identityMapping(n int) []int {
	m := make([]int, n)
	for q := range m {
		m[q] = q
	}
	return m
}

// interaction is the greedy interaction-graph partitioner.
func interaction(c *circuit.Circuit, topo *network.Topology) []int {
	n := c.NumQubits
	if n == 0 {
		return nil
	}
	w := interactionWeights(c)

	mapping := greedyPlace(n, w, topo)

	// Never-worse guarantee: the greedy result must not exceed the
	// identity baseline on the objective it optimizes (total weighted
	// mesh distance). Greedy placement has no approximation bound, so on
	// adversarial graphs it could lose; falling back makes "interaction is
	// at least as good as identity" structural rather than statistical.
	if base := identityMapping(n); Cost(w, mapping, topo) > Cost(w, base, topo) {
		return base
	}
	return mapping
}

// interactionWeights builds the symmetric qubit-interaction matrix:
// +1 per two-qubit gate between a pair, +1 per conditioned operation
// between the consumer qubit and the qubit whose measurement produced each
// condition bit (that is real send/recv traffic on the fabric at run time).
func interactionWeights(c *circuit.Circuit) [][]int64 {
	n := c.NumQubits
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	add := func(a, b int) {
		if a == b || a < 0 || b < 0 || a >= n || b >= n {
			return
		}
		w[a][b]++
		w[b][a]++
	}
	// Bounds are guarded locally even though the pipeline validates the
	// circuit first — Place is a public entry point and a malformed op must
	// degrade to a missing edge, never an index panic.
	bitSource := make([]int, c.NumBits)
	for i := range bitSource {
		bitSource[i] = -1
	}
	for _, op := range c.Ops {
		if len(op.Qubits) == 0 {
			continue
		}
		if op.Kind == circuit.Measure {
			if op.CBit >= 0 && op.CBit < c.NumBits {
				bitSource[op.CBit] = op.Qubits[0]
			}
			continue
		}
		if op.Kind.IsTwoQubit() && len(op.Qubits) >= 2 {
			add(op.Qubits[0], op.Qubits[1])
		}
		if op.Cond != nil {
			for _, b := range op.Cond.Bits {
				if b >= 0 && b < c.NumBits {
					add(op.Qubits[0], bitSource[b])
				}
			}
		}
	}
	return w
}

// Cost is the objective the interaction placer minimizes: the sum over
// every interacting qubit pair of weight × mesh distance between their
// controllers. Exported so tests (and the bench self-check) can compare
// policies on the metric the placer actually optimizes. mapping must be
// explicit (non-nil).
func Cost(w [][]int64, mapping []int, topo *network.Topology) int64 {
	var total int64
	for a := range w {
		for b := a + 1; b < len(w); b++ {
			if w[a][b] != 0 {
				total += w[a][b] * int64(topo.MeshDistance(mapping[a], mapping[b]))
			}
		}
	}
	return total
}

// CircuitCost is Cost over the interaction graph extracted from c — the
// weighted-distance objective of a mapping for that circuit.
func CircuitCost(c *circuit.Circuit, mapping []int, topo *network.Topology) int64 {
	if mapping == nil {
		mapping = identityMapping(c.NumQubits)
	}
	return Cost(interactionWeights(c), mapping, topo)
}

// greedyPlace seeds the most-connected qubit at the mesh centroid, then
// repeatedly places the unplaced qubit most attached to the placed set
// onto the free controller minimizing weighted distance to its placed
// partners. All ties break toward lower indices, making the result
// deterministic.
func greedyPlace(n int, w [][]int64, topo *network.Topology) []int {
	totalW := make([]int64, n)
	for a := range w {
		for b := range w[a] {
			totalW[a] += w[a][b]
		}
	}

	// Qubit visit order: heaviest total weight first, then, among the
	// remaining, strongest attachment to the already-placed set.
	placedQ := make([]bool, n)
	order := make([]int, 0, n)
	attach := make([]int64, n)
	for len(order) < n {
		best, bestScore, bestTotal := -1, int64(-1), int64(-1)
		for q := 0; q < n; q++ {
			if placedQ[q] {
				continue
			}
			if attach[q] > bestScore || (attach[q] == bestScore && totalW[q] > bestTotal) {
				best, bestScore, bestTotal = q, attach[q], totalW[q]
			}
		}
		placedQ[best] = true
		order = append(order, best)
		for q := 0; q < n; q++ {
			if !placedQ[q] {
				attach[q] += w[best][q]
			}
		}
	}

	// Controller choice: free controller minimizing weighted distance to
	// placed partners; the seed qubit (and any qubit with no placed
	// partners) takes the free controller nearest the mesh centroid so
	// later neighbors have room on every side.
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = -1
	}
	used := make([]bool, topo.N)
	centroid := centroidOrder(topo)
	for _, q := range order {
		bestC, bestCost := -1, int64(0)
		hasPartner := false
		for _, p := range order {
			if mapping[p] >= 0 && w[q][p] != 0 {
				hasPartner = true
				break
			}
		}
		if !hasPartner {
			for _, c := range centroid {
				if !used[c] {
					bestC = c
					break
				}
			}
		} else {
			for c := 0; c < topo.N; c++ {
				if used[c] {
					continue
				}
				var cost int64
				for p := 0; p < n; p++ {
					if mapping[p] >= 0 && w[q][p] != 0 {
						cost += w[q][p] * int64(topo.MeshDistance(c, mapping[p]))
					}
				}
				if bestC < 0 || cost < bestCost {
					bestC, bestCost = c, cost
				}
			}
		}
		mapping[q] = bestC
		used[bestC] = true
	}
	return mapping
}

// centroidOrder lists controllers by distance from the mesh center
// (sum of distances to all controllers), ties toward lower addresses.
func centroidOrder(topo *network.Topology) []int {
	type scored struct {
		c    int
		dist int64
	}
	s := make([]scored, topo.N)
	for c := 0; c < topo.N; c++ {
		var d int64
		for o := 0; o < topo.N; o++ {
			d += int64(topo.MeshDistance(c, o))
		}
		s[c] = scored{c, d}
	}
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].dist != s[j].dist {
			return s[i].dist < s[j].dist
		}
		return s[i].c < s[j].c
	})
	out := make([]int, topo.N)
	for i, e := range s {
		out[i] = e.c
	}
	return out
}
