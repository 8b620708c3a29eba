package exp

import (
	"fmt"

	"dhisq/internal/network"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// The collective experiment measures what the topology-aware schedules buy
// over the naive fan-in/fan-out baseline: the same reduction, on the same
// fabric, under the same contention model, scheduled two ways. Naive
// funnels every participant's vector through the root's links; the
// topology-aware schedules (ring on torus, recursive halving/doubling on
// mesh, hierarchical subtree combining on tree) spread the same traffic
// across the fabric. The sweep runs participant count × topology × link
// bandwidth, self-checks every cell's reduced values against the host
// oracle, and gates on the makespan contract: collective never worse than
// naive, strictly better somewhere on torus and tree.
//
// Cells only sweep finite bandwidth (ser > 0). With contention off,
// messages never queue, so the naive fan-in — every message in flight at
// once, no serialization anywhere — is already optimal; the schedules
// exist to relieve the congestion that finite links create.

// CollectivePoint is one (kind, topology, participants, bandwidth) cell:
// the naive baseline and the topology-resolved schedule, run on identical
// fresh fabrics over identical inputs.
type CollectivePoint struct {
	Kind         string `json:"kind"`
	Topology     string `json:"topology"`
	Participants int    `json:"participants"`
	// LinkSerialization is the cycles one word occupies a link (always > 0
	// in this sweep; see the package comment).
	LinkSerialization int64 `json:"link_serialization_cycles"`
	// Schedule is the concrete schedule CollAuto resolved to for this
	// topology (ring, halving, or tree).
	Schedule      string  `json:"schedule"`
	Width         int     `json:"width_words"`
	NaiveMakespan int64   `json:"naive_makespan_cycles"`
	CollMakespan  int64   `json:"collective_makespan_cycles"`
	NaiveMessages uint64  `json:"naive_messages"`
	CollMessages  uint64  `json:"collective_messages"`
	Speedup       float64 `json:"speedup_vs_naive"`
	// ValuesMatch records that both runs' owned words equaled the host
	// oracle (a false here fails the values_match gate).
	ValuesMatch bool `json:"values_match"`
}

// CollectiveOptions parameterizes the sweep. Zero values pick the defaults
// used by dhisq-bench -exp collective.
type CollectiveOptions struct {
	Seed           int64 // input-vector seed (default 1)
	Kinds          []network.CollKind
	Topologies     []network.TopologyKind
	Participants   []int      // participant counts (default 4, 9, 18, 36)
	Serializations []sim.Time // link occupancies, all > 0 (default 2, 4, 8)
}

// collWidth is the words per participant vector of every cell.
const collWidth = 8

// collInputs builds deterministic pseudo-random input vectors from the
// seed via an xorshift generator (no global rand state, so a sweep is a
// pure function of its options).
func collInputs(seed int64, n, w int) [][]uint32 {
	x := uint64(seed)*2654435761 + 1
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return uint32(x)
	}
	in := make([][]uint32, n)
	for r := range in {
		in[r] = make([]uint32, w)
		for i := range in[r] {
			in[r][i] = next()
		}
	}
	return in
}

// runCollCell runs one schedule of one cell on a fresh fabric and reports
// whether every owned word equals the host oracle.
func runCollCell(cfg network.Config, spec network.CollSpec, inputs [][]uint32) (*network.CollResult, bool, error) {
	topo, err := network.NewTopology(cfg)
	if err != nil {
		return nil, false, err
	}
	f := network.NewFabric(sim.NewEngine(), topo, telf.NewLog())
	res, err := network.RunCollective(f, spec, inputs, 0)
	if err != nil {
		return nil, false, err
	}
	want := network.CollExpect(spec, inputs)
	for r := range res.Values {
		for _, w := range network.CollOwnedWords(spec, r) {
			if res.Values[r][w] != want[r][w] {
				return res, false, nil
			}
		}
	}
	return res, true, nil
}

// CollectiveSweep runs the full grid and returns one point per cell, in
// deterministic (kind, topology, participants, serialization) order.
func CollectiveSweep(opt CollectiveOptions) ([]CollectivePoint, error) {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Kinds == nil {
		// Broadcast, reduce and all-reduce are all gated: broadcast and
		// reduce are the shapes the runtime consumers use (feed-forward
		// distribution, parity gathers, the digest reduce), and all-reduce
		// joined the gate once the ring schedule closed its old caveat —
		// recursive doubling sends ~2x naive's message volume at
		// non-power-of-two counts, so the resolver now routes those counts
		// to the volume-optimal reduce-scatter + all-gather ring instead.
		opt.Kinds = []network.CollKind{network.CollBroadcast, network.CollReduce, network.CollAllReduce}
	}
	if opt.Topologies == nil {
		opt.Topologies = []network.TopologyKind{network.TopoMesh, network.TopoTorus, network.TopoTree}
	}
	if opt.Participants == nil {
		opt.Participants = []int{4, 9, 18, 36}
	}
	if opt.Serializations == nil {
		opt.Serializations = []sim.Time{2, 4, 8}
	}
	for _, ser := range opt.Serializations {
		if ser <= 0 {
			return nil, fmt.Errorf("exp: collective sweep needs finite bandwidth (ser > 0), got %d", ser)
		}
	}

	var out []CollectivePoint
	for _, kind := range opt.Kinds {
		for _, tk := range opt.Topologies {
			for _, n := range opt.Participants {
				for _, ser := range opt.Serializations {
					cfg := network.DefaultConfig(36)
					cfg.Topology = tk
					cfg.LinkSerialization = ser
					topo, err := network.NewTopology(cfg)
					if err != nil {
						return nil, err
					}
					if n > topo.N {
						return nil, fmt.Errorf("exp: %d participants on a %d-controller fabric", n, topo.N)
					}
					// Snake order makes ring neighbors physical neighbors on
					// mesh/torus — the order the runtime consumers use too.
					parts := topo.SnakeOrder()[:n]
					spec := network.CollSpec{
						Kind: kind, Parts: parts, Root: 0,
						Width: collWidth, Op: network.ReduceSum,
					}
					inputs := collInputs(opt.Seed, n, collWidth)

					spec.Schedule = network.CollNaive
					naive, naiveOK, err := runCollCell(cfg, spec, inputs)
					if err != nil {
						return nil, err
					}
					// Resolve sees the collective kind and participant
					// count, so non-power-of-two all-reduce lands on the
					// ring schedule rather than recursive doubling.
					resolved := network.CollAuto.Resolve(tk, kind, n)
					spec.Schedule = resolved
					coll, collOK, err := runCollCell(cfg, spec, inputs)
					if err != nil {
						return nil, err
					}

					speedup := 0.0
					if coll.Makespan() > 0 {
						speedup = float64(naive.Makespan()) / float64(coll.Makespan())
					}
					out = append(out, CollectivePoint{
						Kind:              kind.String(),
						Topology:          tk.String(),
						Participants:      n,
						LinkSerialization: int64(ser),
						Schedule:          resolved.String(),
						Width:             collWidth,
						NaiveMakespan:     int64(naive.Makespan()),
						CollMakespan:      int64(coll.Makespan()),
						NaiveMessages:     naive.Messages,
						CollMessages:      coll.Messages,
						Speedup:           speedup,
						ValuesMatch:       naiveOK && collOK,
					})
				}
			}
		}
	}
	return out, nil
}

// collectiveGates holds the schedules to their contract; a strict-win
// gate exists for a topology the sweep covered.
//
//   - cells: the sweep ran at least one.
//   - values_match: every cell's owned words equaled the host oracle,
//     under both schedules.
//   - never_slower: the topology-aware schedule is slower than naive in no
//     cell.
//   - torus_strict, tree_strict: it is strictly faster in at least one
//     torus cell and one tree cell, where the ring and subtree schedules
//     have real structure to exploit.
func collectiveGates(points []CollectivePoint) []Gate {
	mismatched, slower := 0, 0
	cells, strictly := map[string]int{}, map[string]int{}
	for _, p := range points {
		cells[p.Topology]++
		if !p.ValuesMatch {
			mismatched++
		}
		if p.CollMakespan > p.NaiveMakespan {
			slower++
		}
		if p.CollMakespan < p.NaiveMakespan {
			strictly[p.Topology]++
		}
	}
	gates := []Gate{
		NewGate("cells", float64(len(points)), ">=", 1),
		NewGate("values_match", float64(mismatched), "==", 0),
		NewGate("never_slower", float64(slower), "==", 0),
	}
	for _, topo := range []string{"torus", "tree"} {
		if cells[topo] > 0 {
			gates = append(gates, NewGate(topo+"_strict", float64(strictly[topo]), ">=", 1))
		}
	}
	return gates
}

var collectiveCols = []column[CollectivePoint]{
	{"kind", func(p CollectivePoint) string { return p.Kind }},
	{"topology", func(p CollectivePoint) string { return p.Topology }},
	{"parts", func(p CollectivePoint) string { return fmt.Sprint(p.Participants) }},
	{"ser(cy)", func(p CollectivePoint) string { return fmt.Sprint(p.LinkSerialization) }},
	{"schedule", func(p CollectivePoint) string { return p.Schedule }},
	{"naive(cy)", func(p CollectivePoint) string { return fmt.Sprint(p.NaiveMakespan) }},
	{"coll(cy)", func(p CollectivePoint) string { return fmt.Sprint(p.CollMakespan) }},
	{"speedup", func(p CollectivePoint) string { return fmt.Sprintf("%.2f", p.Speedup) }},
	{"msgs coll/naive", func(p CollectivePoint) string { return fmt.Sprintf("%d/%d", p.CollMessages, p.NaiveMessages) }},
}
