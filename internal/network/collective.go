package network

import (
	"fmt"

	"dhisq/internal/registry"
	"dhisq/internal/sim"
)

// This file is the collective layer of the fabric: first-class broadcast,
// reduce, all-reduce, and reduce-scatter primitives with topology-aware
// message schedules. A collective executes as ordinary timestamped fabric
// messages — every word goes through Fabric.SendMessage, so link
// serialization, router-port sharing, and CongestionStats attribution
// apply unchanged. Schedules are static per (topology, spec): each
// participant gets a script of send/receive steps it executes strictly in
// order, which makes both the reduced values and the completion times
// deterministic regardless of message arrival interleaving.
//
// The naive fan-in/fan-out schedule is the baseline and correctness
// oracle: every schedule must produce the same reduced values, and the
// `-exp collective` gate holds the topology-aware schedules to "never
// slower than naive under contention".

// CollKind names a collective operation.
type CollKind int

const (
	// CollBroadcast distributes the root's vector to every participant.
	CollBroadcast CollKind = iota
	// CollReduce combines every participant's vector elementwise into the
	// root's buffer.
	CollReduce
	// CollAllReduce combines every participant's vector elementwise and
	// leaves the result at every participant.
	CollAllReduce
	// CollReduceScatter combines every participant's vector elementwise
	// and leaves reduced chunk i (of len(Parts) equal chunks) at rank i.
	CollReduceScatter
)

var collKindNames = map[CollKind]string{
	CollBroadcast:     "broadcast",
	CollReduce:        "reduce",
	CollAllReduce:     "allreduce",
	CollReduceScatter: "reduce-scatter",
}

func (k CollKind) String() string {
	if n, ok := collKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("collkind(%d)", int(k))
}

// CollKinds lists every collective kind in stable order (sweep/test order).
func CollKinds() []CollKind {
	return []CollKind{CollBroadcast, CollReduce, CollAllReduce, CollReduceScatter}
}

// CollSchedule selects the message schedule of a collective.
type CollSchedule int

const (
	// CollNaive is the fan-in/fan-out baseline: the root exchanges a
	// direct point-to-point message with every other participant
	// (all-to-all for reduce-scatter). It is the correctness oracle.
	CollNaive CollSchedule = iota
	// CollRing walks the participant order as a bidirectional ring —
	// the uPIMulator-style schedule; on a torus with snake-ordered
	// participants every hop is a neighbor link.
	CollRing
	// CollHalving is recursive halving/doubling over participant ranks
	// (binomial trees, butterfly all-reduce) — the mesh schedule.
	CollHalving
	// CollTree combines hierarchically along the router tree: each
	// subtree's participants fold into a representative, representatives
	// fold upward — the tree-topology schedule, mirroring the Figure 8
	// region-sync resolution.
	CollTree
	// CollAuto picks the schedule the topology favors: ring on torus,
	// halving/doubling on mesh, hierarchical subtree combining on tree.
	CollAuto
)

// collSchedules is the fixed registry, in enum (and documentation) order.
var collSchedules = []CollSchedule{CollNaive, CollRing, CollHalving, CollTree, CollAuto}

var collScheduleNames = [...]string{"naive", "ring", "halving", "tree", "auto"}

func (s CollSchedule) String() string {
	if s >= 0 && int(s) < len(collScheduleNames) {
		return collScheduleNames[s]
	}
	return fmt.Sprintf("collschedule(%d)", int(s))
}

// CollScheduleNames lists the schedule names in stable order.
func CollScheduleNames() []string { return registry.Names(collSchedules, CollSchedule.String) }

// ParseCollSchedule maps a CLI/API string onto a CollSchedule. There is no
// default: "" means "collectives off" to every caller, not a schedule.
func ParseCollSchedule(s string) (CollSchedule, error) {
	return registry.Lookup("collective schedule", s, "", collSchedules, CollSchedule.String)
}

// Resolve maps CollAuto onto the schedule selected for the topology kind;
// concrete schedules pass through unchanged.
func (s CollSchedule) Resolve(k TopologyKind) CollSchedule {
	if s != CollAuto {
		return s
	}
	switch k {
	case TopoTorus:
		return CollRing
	case TopoTree:
		return CollTree
	default:
		return CollHalving
	}
}

// ResolveFor maps CollAuto onto a schedule using the full operation shape,
// not just the topology kind: on meshes an auto all-reduce with a
// non-power-of-two participant count routes to the ring reduce-scatter +
// all-gather instead of recursive halving/doubling, whose deficit folds cost
// roughly twice the naive volume there (the PR 9 caveat). Everything else
// matches Resolve, and concrete schedules pass through unchanged.
func (s CollSchedule) ResolveFor(k TopologyKind, kind CollKind, parts int) CollSchedule {
	if s != CollAuto {
		return s
	}
	r := s.Resolve(k)
	if kind == CollAllReduce && r == CollHalving && parts&(parts-1) != 0 {
		return CollRing
	}
	return r
}

// ReduceOp combines two words. Collective schedules reorder and re-bracket
// combines freely, so the operator must be associative and commutative.
type ReduceOp func(a, b uint32) uint32

// ReduceSum adds with uint32 wraparound.
func ReduceSum(a, b uint32) uint32 { return a + b }

// ReduceXor is bitwise exclusive or — the feed-forward parity operator.
func ReduceXor(a, b uint32) uint32 { return a ^ b }

// ReduceMax keeps the larger word — the Figure 8 time-point resolution.
func ReduceMax(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// CollSpec describes one collective operation.
type CollSpec struct {
	Kind     CollKind
	Schedule CollSchedule
	// Parts lists the participant controller addresses; the index in this
	// slice is the participant's rank, and rank order is the ring order of
	// CollRing (pass Topology.SnakeOrder for neighbor-adjacent rings).
	Parts []int
	// Root is the rank (index into Parts) that sources a broadcast and
	// receives a reduce.
	Root int
	// Width is the number of words in each participant's vector.
	// CollReduceScatter requires Width % len(Parts) == 0.
	Width int
	// Op combines words for the reducing kinds (ignored by CollBroadcast).
	Op ReduceOp
}

func (spec CollSpec) validate(t *Topology) error {
	n := len(spec.Parts)
	if n == 0 {
		return fmt.Errorf("network: collective with no participants")
	}
	seen := map[int]bool{}
	for _, a := range spec.Parts {
		if a < 0 || a >= t.N {
			return fmt.Errorf("network: collective participant %d outside controllers [0,%d)", a, t.N)
		}
		if seen[a] {
			return fmt.Errorf("network: duplicate collective participant %d", a)
		}
		seen[a] = true
	}
	if spec.Root < 0 || spec.Root >= n {
		return fmt.Errorf("network: collective root rank %d outside [0,%d)", spec.Root, n)
	}
	if spec.Width < 1 {
		return fmt.Errorf("network: collective width %d < 1", spec.Width)
	}
	if spec.Kind == CollReduceScatter && spec.Width%n != 0 {
		return fmt.Errorf("network: reduce-scatter width %d not divisible by %d participants", spec.Width, n)
	}
	if spec.Kind != CollBroadcast && spec.Op == nil {
		return fmt.Errorf("network: %s collective without a reduce op", spec.Kind)
	}
	return nil
}

// chunkWords returns the word indices of rank r's reduce-scatter chunk.
func (spec CollSpec) chunkWords(r int) []int {
	cw := spec.Width / len(spec.Parts)
	out := make([]int, cw)
	for i := range out {
		out[i] = r*cw + i
	}
	return out
}

// CollOwnedWords returns the word indices of Values[rank] that a completed
// collective defines: all of them for broadcast and all-reduce, the root's
// full vector for reduce (other ranks' buffers are undefined), and rank's
// own chunk for reduce-scatter.
func CollOwnedWords(spec CollSpec, rank int) []int {
	switch spec.Kind {
	case CollReduce:
		if rank != spec.Root {
			return nil
		}
	case CollReduceScatter:
		return spec.chunkWords(rank)
	}
	all := make([]int, spec.Width)
	for i := range all {
		all[i] = i
	}
	return all
}

// CollExpect computes the host-side expected outputs of a collective: the
// oracle every schedule is held to. Undefined words carry the rank's input.
func CollExpect(spec CollSpec, inputs [][]uint32) [][]uint32 {
	reduced := append([]uint32(nil), inputs[0]...)
	if spec.Kind != CollBroadcast {
		for _, in := range inputs[1:] {
			for w, v := range in {
				reduced[w] = spec.Op(reduced[w], v)
			}
		}
	}
	out := make([][]uint32, len(inputs))
	for r := range out {
		out[r] = append([]uint32(nil), inputs[r]...)
		for _, w := range CollOwnedWords(spec, r) {
			switch spec.Kind {
			case CollBroadcast:
				out[r][w] = inputs[spec.Root][w]
			default:
				out[r][w] = reduced[w]
			}
		}
	}
	return out
}

// SnakeOrder returns the controller addresses in boustrophedon row order:
// consecutive entries are mesh-adjacent, making rank order a near-
// Hamiltonian ring for CollRing on mesh and torus fabrics.
func (t *Topology) SnakeOrder() []int {
	out := make([]int, 0, t.N)
	for y := 0; y < t.Cfg.MeshH; y++ {
		if y%2 == 0 {
			for x := 0; x < t.Cfg.MeshW; x++ {
				out = append(out, y*t.Cfg.MeshW+x)
			}
		} else {
			for x := t.Cfg.MeshW - 1; x >= 0; x-- {
				out = append(out, y*t.Cfg.MeshW+x)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Schedules: per-participant step scripts
// ---------------------------------------------------------------------------

// collStep is one entry of a participant's script. Steps execute strictly
// in order: a send step fires all its words immediately (sends never
// block), a receive step completes once every expected word from the peer
// arrived. Word lists are read-only and may be shared between steps.
type collStep struct {
	send    bool
	peer    int   // peer rank
	words   []int // word indices, in wire order
	combine bool  // receive: fold with Op instead of overwrite
}

// collScripts accumulates the per-rank scripts while a schedule builder
// runs.
type collScripts struct {
	spec  CollSpec
	steps [][]collStep
	all   []int // shared [0..Width) word list
}

func newCollScripts(spec CollSpec) *collScripts {
	all := make([]int, spec.Width)
	for i := range all {
		all[i] = i
	}
	return &collScripts{spec: spec, steps: make([][]collStep, len(spec.Parts)), all: all}
}

func (b *collScripts) send(from, to int, words []int) {
	b.steps[from] = append(b.steps[from], collStep{send: true, peer: to, words: words})
}

func (b *collScripts) recv(at, from int, words []int, combine bool) {
	b.steps[at] = append(b.steps[at], collStep{peer: from, words: words, combine: combine})
}

// buildCollScripts resolves the schedule and constructs every
// participant's script. It is a pure function of (topology, spec), which
// is what makes collective completion times deterministic.
func buildCollScripts(t *Topology, spec CollSpec) ([][]collStep, error) {
	if err := spec.validate(t); err != nil {
		return nil, err
	}
	b := newCollScripts(spec)
	switch spec.Schedule.ResolveFor(t.Cfg.Topology, spec.Kind, len(spec.Parts)) {
	case CollNaive:
		b.naive(spec.Kind)
	case CollRing:
		b.ring(spec.Kind)
	case CollHalving:
		b.halving(spec.Kind)
	case CollTree:
		b.tree(spec.Kind, t)
	default:
		return nil, fmt.Errorf("network: unknown collective schedule %v", spec.Schedule)
	}
	return b.steps, nil
}

// naive: direct fan-out from / fan-in to the root (all-to-all for
// reduce-scatter). Every message crosses the full source→destination path.
func (b *collScripts) naive(kind CollKind) {
	n, r0 := len(b.spec.Parts), b.spec.Root
	switch kind {
	case CollBroadcast:
		for p := 0; p < n; p++ {
			if p == r0 {
				continue
			}
			b.send(r0, p, b.all)
			b.recv(p, r0, b.all, false)
		}
	case CollReduce:
		for p := 0; p < n; p++ {
			if p == r0 {
				continue
			}
			b.send(p, r0, b.all)
			b.recv(r0, p, b.all, true)
		}
	case CollAllReduce:
		b.naive(CollReduce)
		b.naive(CollBroadcast)
	case CollReduceScatter:
		// All-to-all: rank i sends chunk j directly to rank j.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				b.send(i, j, b.spec.chunkWords(j))
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				b.recv(i, j, b.spec.chunkWords(i), true)
			}
		}
	}
}

// ring: bidirectional chains around the participant order. Broadcast
// relays outward from the root along both arcs; reduce combines inward
// along both arcs; reduce-scatter is the classic N-1-step rotation where
// each chunk accumulates as it circles the ring.
func (b *collScripts) ring(kind CollKind) {
	n, r0 := len(b.spec.Parts), b.spec.Root
	if n == 1 {
		return
	}
	fwd := (n - 1 + 1) / 2 // successor-arc length
	bwd := n - 1 - fwd     // predecessor-arc length
	at := func(d int) int { return ((r0+d)%n + n) % n }
	switch kind {
	case CollBroadcast:
		if fwd >= 1 {
			b.send(r0, at(1), b.all)
		}
		if bwd >= 1 {
			b.send(r0, at(-1), b.all)
		}
		for d := 1; d <= fwd; d++ {
			b.recv(at(d), at(d-1), b.all, false)
			if d < fwd {
				b.send(at(d), at(d+1), b.all)
			}
		}
		for d := 1; d <= bwd; d++ {
			b.recv(at(-d), at(-d+1), b.all, false)
			if d < bwd {
				b.send(at(-d), at(-d-1), b.all)
			}
		}
	case CollReduce:
		for d := fwd; d >= 1; d-- {
			if d < fwd {
				b.recv(at(d), at(d+1), b.all, true)
			}
			b.send(at(d), at(d-1), b.all)
		}
		for d := bwd; d >= 1; d-- {
			if d < bwd {
				b.recv(at(-d), at(-d-1), b.all, true)
			}
			b.send(at(-d), at(-d+1), b.all)
		}
		if fwd >= 1 {
			b.recv(r0, at(1), b.all, true)
		}
		if bwd >= 1 {
			b.recv(r0, at(-1), b.all, true)
		}
	case CollAllReduce:
		// Reduce-scatter + all-gather rotation: per-node volume is
		// 2·W·(n-1)/n words at any n, replacing the reduce-then-broadcast
		// relay that walked the full vector along each arc. Chunks are the
		// locally uneven split [r·W/n, (r+1)·W/n) — no divisibility
		// requirement, and empty chunks (W < n) complete as zero-word steps.
		mod := func(x int) int { return (x%n + n) % n }
		W := b.spec.Width
		chunk := func(r int) []int {
			lo, hi := r*W/n, (r+1)*W/n
			out := make([]int, 0, hi-lo)
			for w := lo; w < hi; w++ {
				out = append(out, w)
			}
			return out
		}
		// Phase 1: the CollReduceScatter rotation below, with uneven
		// chunks; after n-1 rounds rank i holds the fully combined chunk i.
		for s := 0; s <= n-2; s++ {
			for i := 0; i < n; i++ {
				b.send(i, mod(i+1), chunk(mod(i-s-1)))
				b.recv(i, mod(i-1), chunk(mod(i-s-2)), true)
			}
		}
		// Phase 2: all-gather; each round forwards the chunk received in
		// the previous one.
		for s := 0; s <= n-2; s++ {
			for i := 0; i < n; i++ {
				b.send(i, mod(i+1), chunk(mod(i-s)))
				b.recv(i, mod(i-1), chunk(mod(i-s-1)), false)
			}
		}
	case CollReduceScatter:
		// Round s: rank i forwards the partial of chunk (i-s-1) to its
		// successor while folding its own contribution into chunk
		// (i-s-2) arriving from its predecessor. After n-1 rounds chunk c
		// has circled from rank c+1 around to rank c, combining every
		// contribution on the way.
		mod := func(x int) int { return (x%n + n) % n }
		for s := 0; s <= n-2; s++ {
			for i := 0; i < n; i++ {
				b.send(i, mod(i+1), b.spec.chunkWords(mod(i-s-1)))
				b.recv(i, mod(i-1), b.spec.chunkWords(mod(i-s-2)), true)
			}
		}
	}
}

// halving: recursive halving/doubling over ranks re-rooted at the root
// (virtual rank v = rank - root mod n). With n not a power of two the
// ranks beyond the largest power p fold into partners first and rejoin
// last, the standard deficit handling.
func (b *collScripts) halving(kind CollKind) {
	n, r0 := len(b.spec.Parts), b.spec.Root
	if n == 1 {
		return
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	rk := func(v int) int { return (v + r0) % n }
	foldIn := func() {
		for v := p; v < n; v++ {
			b.send(rk(v), rk(v-p), b.all)
		}
		for v := 0; v+p < n; v++ {
			b.recv(rk(v), rk(v+p), b.all, true)
		}
	}
	foldOut := func() {
		for v := 0; v+p < n; v++ {
			b.send(rk(v), rk(v+p), b.all)
		}
		for v := p; v < n; v++ {
			b.recv(rk(v), rk(v-p), b.all, false)
		}
	}
	switch kind {
	case CollBroadcast:
		for v := 0; v < p; v++ {
			// Masks descend: a node receives at its highest set bit, then
			// relays for every lower mask — the binomial broadcast tree.
			for mask := p >> 1; mask >= 1; mask >>= 1 {
				switch v % (2 * mask) {
				case mask:
					b.recv(rk(v), rk(v-mask), b.all, false)
				case 0:
					if v+mask < p {
						b.send(rk(v), rk(v+mask), b.all)
					}
				}
			}
		}
		foldOut()
	case CollReduce:
		foldIn()
		for v := 0; v < p; v++ {
			// Masks ascend: a node folds in partners above it until its
			// lowest set bit names the round it sends and retires.
			for mask := 1; mask < p; mask <<= 1 {
				if v%(2*mask) == mask {
					b.send(rk(v), rk(v-mask), b.all)
					break
				}
				if v+mask < p {
					b.recv(rk(v), rk(v+mask), b.all, true)
				}
			}
		}
	case CollAllReduce:
		foldIn()
		// Recursive-doubling butterfly: every round exchanges and folds
		// with the partner one bit away; sends precede receives per node,
		// so the exchanged value is the pre-round partial on both sides.
		for mask := 1; mask < p; mask <<= 1 {
			for v := 0; v < p; v++ {
				b.send(rk(v), rk(v^mask), b.all)
				b.recv(rk(v), rk(v^mask), b.all, true)
			}
		}
		foldOut()
	case CollReduceScatter:
		if n == p {
			// True recursive halving: each round exchanges the half of
			// the active chunk range owned by the partner's side, so
			// message volume halves as partner distance doubles.
			span := func(lo, hi int) []int {
				var out []int
				for u := lo; u < hi; u++ {
					out = append(out, b.spec.chunkWords(rk(u))...)
				}
				return out
			}
			for v := 0; v < p; v++ {
				lo, size := 0, p
				for size > 1 {
					half := size / 2
					if v < lo+half {
						b.send(rk(v), rk(v+half), span(lo+half, lo+size))
						b.recv(rk(v), rk(v+half), span(lo, lo+half), true)
						size = half
					} else {
						b.send(rk(v), rk(v-half), span(lo, lo+half))
						b.recv(rk(v), rk(v-half), span(lo+half, lo+size), true)
						lo, size = lo+half, half
					}
				}
			}
			return
		}
		// Deficit ranks: binomial reduce to the root, then direct chunk
		// scatter — still far fewer root-adjacent messages than naive.
		b.halving(CollReduce)
		for i := 0; i < n; i++ {
			if i == r0 {
				continue
			}
			b.send(r0, i, b.spec.chunkWords(i))
			b.recv(i, r0, b.spec.chunkWords(i), false)
		}
	}
}

// tree: hierarchical subtree combining along the router tree. Every
// router's participants fold into a representative (the subtree holding
// the root participant is always represented by it), representatives fold
// upward; broadcast and scatter mirror the combine downward.
func (b *collScripts) tree(kind CollKind, t *Topology) {
	spec := b.spec
	rankOf := make(map[int]int, len(spec.Parts))
	for r, a := range spec.Parts {
		rankOf[a] = r
	}
	rootAddr := spec.Parts[spec.Root]

	// rep(node) = participant address representing node's subtree (-1 when
	// the subtree holds none); memoized, preferring the collective root.
	repMemo := map[int]int{}
	var rep func(node int) int
	rep = func(node int) int {
		if r, ok := repMemo[node]; ok {
			return r
		}
		best := -1
		if !t.IsRouter(node) {
			if _, ok := rankOf[node]; ok {
				best = node
			}
		} else {
			for _, c := range t.Children(node) {
				cr := rep(c)
				if cr < 0 {
					continue
				}
				if cr == rootAddr {
					best = rootAddr
				} else if best < 0 {
					best = cr
				}
			}
		}
		repMemo[node] = best
		return best
	}

	// subWords(node) = the reduce-scatter words owned by the subtree's
	// participants, in leaf order (both sides of a scatter hop share it).
	subWords := func(node int) []int {
		var out []int
		for _, leaf := range t.Leaves(node) {
			if r, ok := rankOf[leaf]; ok {
				out = append(out, spec.chunkWords(r)...)
			}
		}
		return out
	}

	var emitReduce func(node int)
	emitReduce = func(node int) {
		if !t.IsRouter(node) {
			return
		}
		r := rep(node)
		if r < 0 {
			return
		}
		for _, c := range t.Children(node) {
			emitReduce(c)
		}
		for _, c := range t.Children(node) {
			cr := rep(c)
			if cr < 0 || cr == r {
				continue
			}
			b.send(rankOf[cr], rankOf[r], b.all)
			b.recv(rankOf[r], rankOf[cr], b.all, true)
		}
	}
	var emitBcast func(node int, words func(int) []int)
	emitBcast = func(node int, words func(int) []int) {
		if !t.IsRouter(node) {
			return
		}
		r := rep(node)
		if r < 0 {
			return
		}
		for _, c := range t.Children(node) {
			cr := rep(c)
			if cr < 0 {
				continue
			}
			if cr != r {
				w := words(c)
				if len(w) > 0 {
					b.send(rankOf[r], rankOf[cr], w)
					b.recv(rankOf[cr], rankOf[r], w, false)
				}
			}
			emitBcast(c, words)
		}
	}

	switch kind {
	case CollBroadcast:
		emitBcast(t.Root, func(int) []int { return b.all })
	case CollReduce:
		emitReduce(t.Root)
	case CollAllReduce:
		emitReduce(t.Root)
		emitBcast(t.Root, func(int) []int { return b.all })
	case CollReduceScatter:
		emitReduce(t.Root)
		emitBcast(t.Root, subWords)
	}
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// CollResult is a completed collective.
type CollResult struct {
	// Values holds each rank's final buffer; CollOwnedWords says which
	// words the operation defines.
	Values [][]uint32
	// Start and Done bound the operation: Done is the time the last
	// participant finished its script. Makespan = Done - Start.
	Start, Done sim.Time
	// Messages counts fabric messages sent (one per word per hop-path).
	Messages uint64
}

// Makespan is the wall-clock cost of the collective in cycles.
func (r *CollResult) Makespan() sim.Time { return r.Done - r.Start }

type collMsg struct {
	val uint32
	at  sim.Time
}

// collNode is one participant's runtime state machine, attached to the
// fabric as the endpoint of its controller address for the duration of
// the collective.
type collNode struct {
	run   *collRun
	rank  int
	buf   []uint32
	steps []collStep
	pc    int
	sub   int // words consumed within the current receive step
	clock sim.Time
	inbox map[int][]collMsg
	done  bool
}

// DeliverMessage implements Endpoint: queue the word and try to advance.
func (n *collNode) DeliverMessage(src int, val uint32, arrival sim.Time) {
	rank, ok := n.run.rankOf[src]
	if !ok {
		return // stray traffic from outside the collective: ignore
	}
	n.inbox[rank] = append(n.inbox[rank], collMsg{val: val, at: arrival})
	n.advance()
}

// DeliverSyncSignal implements Endpoint (collective nodes never sync).
func (n *collNode) DeliverSyncSignal(src int, arrival sim.Time) {}

// DeliverRegionResume implements Endpoint.
func (n *collNode) DeliverRegionResume(router int, tm, arrival sim.Time) {}

// advance executes script steps until one blocks on a missing word.
func (n *collNode) advance() {
	c := n.run
	for n.pc < len(n.steps) {
		st := &n.steps[n.pc]
		if st.send {
			from := c.spec.Parts[n.rank]
			to := c.spec.Parts[st.peer]
			for _, w := range st.words {
				c.fab.SendMessage(from, to, n.buf[w], n.clock)
				c.msgs++
			}
			n.pc++
			continue
		}
		q := n.inbox[st.peer]
		for n.sub < len(st.words) && len(q) > 0 {
			m := q[0]
			q = q[1:]
			w := st.words[n.sub]
			if st.combine {
				n.buf[w] = c.spec.Op(n.buf[w], m.val)
			} else {
				n.buf[w] = m.val
			}
			if m.at > n.clock {
				n.clock = m.at
			}
			n.sub++
		}
		n.inbox[st.peer] = q
		if n.sub < len(st.words) {
			return // wait for the rest of this step's words
		}
		n.sub = 0
		n.pc++
	}
	if !n.done {
		n.done = true
		c.remaining--
		if n.clock > c.done {
			c.done = n.clock
		}
	}
}

// collRun is the shared state of one executing collective.
type collRun struct {
	fab       *Fabric
	spec      CollSpec
	rankOf    map[int]int
	nodes     []*collNode
	remaining int
	msgs      uint64
	done      sim.Time
}

// RunCollective executes one collective on the fabric, starting no earlier
// than `at` (clamped to the engine's present). The participants' endpoints
// are temporarily replaced by collective state machines and restored on
// return, so a machine can run a collective after its program completes
// without disturbing controller state. inputs[rank] is rank's Width-word
// contribution; it is copied, never mutated.
//
// The engine is stepped until the collective completes, so any
// still-queued foreign events will also execute — callers interleaving
// collectives with program traffic should start them on a drained engine.
func RunCollective(f *Fabric, spec CollSpec, inputs [][]uint32, at sim.Time) (*CollResult, error) {
	steps, err := buildCollScripts(f.Topo, spec)
	if err != nil {
		return nil, err
	}
	if len(inputs) != len(spec.Parts) {
		return nil, fmt.Errorf("network: %d collective inputs for %d participants", len(inputs), len(spec.Parts))
	}
	for r, in := range inputs {
		if len(in) != spec.Width {
			return nil, fmt.Errorf("network: rank %d input has %d words, want %d", r, len(in), spec.Width)
		}
	}
	if now := f.eng.Now(); at < now {
		at = now
	}

	run := &collRun{fab: f, spec: spec, rankOf: make(map[int]int, len(spec.Parts)), done: at}
	for r, addr := range spec.Parts {
		run.rankOf[addr] = r
	}
	saved := make([]Endpoint, len(spec.Parts))
	run.nodes = make([]*collNode, len(spec.Parts))
	for r, addr := range spec.Parts {
		n := &collNode{
			run: run, rank: r,
			buf:   append([]uint32(nil), inputs[r]...),
			steps: steps[r],
			clock: at,
			inbox: map[int][]collMsg{},
		}
		run.nodes[r] = n
		saved[r] = f.endpoints[addr]
		f.endpoints[addr] = n
	}
	defer func() {
		for r, addr := range spec.Parts {
			f.endpoints[addr] = saved[r]
		}
		f.collActive = false
	}()
	f.collOps++
	f.collActive = true

	run.remaining = len(run.nodes)
	f.eng.At(at, sim.PriDeliver, func() {
		for _, n := range run.nodes {
			n.advance()
		}
	})
	for run.remaining > 0 && f.eng.Step() {
	}
	if run.remaining > 0 {
		return nil, fmt.Errorf("network: %s/%s collective stalled with %d of %d participants incomplete",
			spec.Kind, spec.Schedule, run.remaining, len(run.nodes))
	}

	res := &CollResult{
		Values:   make([][]uint32, len(run.nodes)),
		Start:    at,
		Done:     run.done,
		Messages: run.msgs,
	}
	for r, n := range run.nodes {
		res.Values[r] = n.buf
	}
	return res, nil
}
