package network

import (
	"fmt"

	"dhisq/internal/registry"
	"dhisq/internal/sim"
)

// This file is the collective layer of the fabric: first-class broadcast,
// reduce and all-reduce primitives with topology-aware
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
)

// collKinds is the fixed registry, in enum (and sweep) order.
var collKinds = []CollKind{CollBroadcast, CollReduce, CollAllReduce}

var collKindNames = [...]string{"broadcast", "reduce", "allreduce"}

func (k CollKind) String() string {
	if k >= 0 && int(k) < len(collKindNames) {
		return collKindNames[k]
	}
	return fmt.Sprintf("collkind(%d)", int(k))
}

// CollSchedule selects the message schedule of a collective.
type CollSchedule int

const (
	// CollNaive is the fan-in/fan-out baseline: the root exchanges a
	// direct point-to-point message with every other participant. It is
	// the correctness oracle.
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
	// CollAuto picks the schedule the operation's shape favors (Resolve).
	CollAuto
)

// scheduleRow declares one schedule. The table below is the schedule set:
// the names the CLIs and the wire accept, and the script builders
// buildCollScripts composes a kind from — broadcast is bcast, reduce is
// reduce, and all-reduce is allReduce where the schedule has a form of its
// own and reduce then bcast where it does not.
type scheduleRow struct {
	name          string
	reduce, bcast func(*collScripts) // fold every vector into the root / fan the root's out
	allReduce     func(*collScripts)
}

var schedules = [...]scheduleRow{
	CollNaive:   {"naive", (*collScripts).naiveReduce, (*collScripts).naiveBcast, nil},
	CollRing:    {"ring", (*collScripts).ringReduce, (*collScripts).ringBcast, (*collScripts).ringAllReduce},
	CollHalving: {"halving", (*collScripts).halvingReduce, (*collScripts).halvingBcast, (*collScripts).halvingAllReduce},
	CollTree:    {"tree", (*collScripts).treeReduce, (*collScripts).treeBcast, nil},
	CollAuto:    {name: "auto"}, // Resolve replaces it with one of the rows above
}

// collSchedules is the fixed registry, in enum (and documentation) order.
var collSchedules = []CollSchedule{CollNaive, CollRing, CollHalving, CollTree, CollAuto}

func (s CollSchedule) String() string {
	if s >= 0 && int(s) < len(schedules) {
		return schedules[s].name
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

// Resolve maps CollAuto onto the schedule the operation's shape favors:
// ring on torus, hierarchical subtree combining on tree, and recursive
// halving/doubling on mesh — except a mesh all-reduce at a non-power-of-two
// participant count, which takes the ring too, because recursive doubling's
// deficit folds cost roughly twice the naive volume there (the PR 9 caveat).
// Concrete schedules pass through unchanged.
func (s CollSchedule) Resolve(k TopologyKind, kind CollKind, parts int) CollSchedule {
	switch {
	case s != CollAuto:
		return s
	case k == TopoTorus:
		return CollRing
	case k == TopoTree:
		return CollTree
	case kind == CollAllReduce && parts&(parts-1) != 0:
		return CollRing
	}
	return CollHalving
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
	if spec.Kind != CollBroadcast && spec.Op == nil {
		return fmt.Errorf("network: %s collective without a reduce op", spec.Kind)
	}
	return nil
}

// CollOwnedWords returns the word indices of Values[rank] that a completed
// collective defines: all of them for broadcast and all-reduce, and the
// root's full vector for reduce (other ranks' buffers are undefined).
func CollOwnedWords(spec CollSpec, rank int) []int {
	if spec.Kind == CollReduce && rank != spec.Root {
		return nil
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
// arrived. Every step moves the contiguous word range [lo, hi) in order.
type collStep struct {
	send    bool
	peer    int  // peer rank
	lo, hi  int  // word range, in wire order
	combine bool // receive: fold with Op instead of overwrite
}

// collScripts accumulates the per-rank scripts while a schedule's builders
// run.
type collScripts struct {
	spec  CollSpec
	topo  *Topology
	steps [][]collStep
}

func (b *collScripts) send(from, to, lo, hi int) {
	b.steps[from] = append(b.steps[from], collStep{send: true, peer: to, lo: lo, hi: hi})
}

func (b *collScripts) recv(at, from, lo, hi int, combine bool) {
	b.steps[at] = append(b.steps[at], collStep{peer: from, lo: lo, hi: hi, combine: combine})
}

// move sends from's whole vector to rank to, which folds it into its own
// (combine) or is overwritten by it.
func (b *collScripts) move(from, to int, combine bool) {
	b.send(from, to, 0, b.spec.Width)
	b.recv(to, from, 0, b.spec.Width, combine)
}

// rank wraps x, a rank plus or minus an offset, back into [0, n).
func (b *collScripts) rank(x int) int {
	n := len(b.spec.Parts)
	return (x%n + n) % n
}

// at is the rank d places after the root in participant order (before it
// when d < 0): ring position d, and the rank of halving's virtual rank d.
func (b *collScripts) at(d int) int { return b.rank(b.spec.Root + d) }

// buildCollScripts resolves the schedule and constructs every
// participant's script. It is a pure function of (topology, spec), which
// is what makes collective completion times deterministic.
func buildCollScripts(t *Topology, spec CollSpec) ([][]collStep, error) {
	if err := spec.validate(t); err != nil {
		return nil, err
	}
	s := spec.Schedule.Resolve(t.Cfg.Topology, spec.Kind, len(spec.Parts))
	if s < 0 || int(s) >= len(schedules) || schedules[s].reduce == nil {
		return nil, fmt.Errorf("network: unknown collective schedule %v", spec.Schedule)
	}
	row := &schedules[s]
	b := &collScripts{spec: spec, topo: t, steps: make([][]collStep, len(spec.Parts))}
	switch spec.Kind {
	case CollBroadcast:
		row.bcast(b)
	case CollReduce:
		row.reduce(b)
	case CollAllReduce:
		if row.allReduce != nil {
			row.allReduce(b)
		} else {
			row.reduce(b)
			row.bcast(b)
		}
	default:
		return nil, fmt.Errorf("network: unknown collective kind %v", spec.Kind)
	}
	return b.steps, nil
}

// naive: direct fan-in to / fan-out from the root. Every message crosses
// the full source→destination path.
func (b *collScripts) naiveReduce() {
	for p := range b.spec.Parts {
		if p != b.spec.Root {
			b.move(p, b.spec.Root, true)
		}
	}
}

func (b *collScripts) naiveBcast() {
	for p := range b.spec.Parts {
		if p != b.spec.Root {
			b.move(b.spec.Root, p, false)
		}
	}
}

// ring: two chains around the participant order, the successor arc and the
// predecessor arc, which split the other n-1 ranks between them. ringArcs
// returns each as {direction, length}. Reduce combines inward along both
// arcs, far end first; broadcast relays outward from the root along both.
func (b *collScripts) ringArcs() [2][2]int {
	n := len(b.spec.Parts)
	return [2][2]int{{+1, n / 2}, {-1, n - 1 - n/2}}
}

func (b *collScripts) ringReduce() {
	for _, arc := range b.ringArcs() {
		for d := arc[1]; d >= 1; d-- {
			b.move(b.at(arc[0]*d), b.at(arc[0]*(d-1)), true)
		}
	}
}

func (b *collScripts) ringBcast() {
	for _, arc := range b.ringArcs() {
		for d := 0; d < arc[1]; d++ {
			b.move(b.at(arc[0]*d), b.at(arc[0]*(d+1)), false)
		}
	}
}

// ringAllReduce is a reduce-scatter then an all-gather, each an n-1-round
// rotation in which every rank forwards one chunk to its successor while
// taking the chunk before it from its predecessor: per-node volume is
// 2·W·(n-1)/n words at any n, where reduce-then-broadcast would walk the
// full vector along each arc. Chunks are the locally uneven split
// [r·W/n, (r+1)·W/n) — no divisibility requirement, and empty chunks
// (W < n) complete as zero-word steps.
func (b *collScripts) ringAllReduce() {
	n, W := len(b.spec.Parts), b.spec.Width
	rotate := func(first int, combine bool) {
		for s := 0; s < n-1; s++ {
			for i := 0; i < n; i++ {
				out, in := b.rank(i-s+first), b.rank(i-s+first-1)
				b.send(i, b.rank(i+1), out*W/n, (out+1)*W/n)
				b.recv(i, b.rank(i-1), in*W/n, (in+1)*W/n, combine)
			}
		}
	}
	// Reduce-scatter: chunk c circles from rank c+1 around to rank c,
	// combining every contribution on the way, so rank i ends holding the
	// fully combined chunk i.
	rotate(-1, true)
	// All-gather: each round forwards the chunk received in the previous one.
	rotate(0, false)
}

// halving: recursive halving/doubling over ranks re-rooted at the root
// (virtual rank v is rank at(v)). With n not a power of two the virtual
// ranks beyond the largest power p fold into the partner p below them
// first (deficitIn) and are copied back last (deficitOut), the standard
// deficit handling.
func (b *collScripts) pow2() int {
	p := 1
	for p*2 <= len(b.spec.Parts) {
		p *= 2
	}
	return p
}

func (b *collScripts) deficitIn(p int) {
	for v := p; v < len(b.spec.Parts); v++ {
		b.move(b.at(v), b.at(v-p), true)
	}
}

func (b *collScripts) deficitOut(p int) {
	for v := p; v < len(b.spec.Parts); v++ {
		b.move(b.at(v-p), b.at(v), false)
	}
}

// halvingReduce is the binomial tree, masks ascending: a node folds in the
// partner one mask above it until its lowest set bit names the round it
// sends and retires.
func (b *collScripts) halvingReduce() {
	p := b.pow2()
	b.deficitIn(p)
	for mask := 1; mask < p; mask <<= 1 {
		for v := 0; v < p; v += 2 * mask {
			b.move(b.at(v+mask), b.at(v), true)
		}
	}
}

// halvingBcast is the same tree, masks descending: a node receives at its
// lowest set bit, then relays for every lower mask.
func (b *collScripts) halvingBcast() {
	p := b.pow2()
	for mask := p >> 1; mask >= 1; mask >>= 1 {
		for v := 0; v < p; v += 2 * mask {
			b.move(b.at(v), b.at(v+mask), false)
		}
	}
	b.deficitOut(p)
}

// halvingAllReduce is the recursive-doubling butterfly: every round
// exchanges and folds with the partner one bit away; sends precede receives
// per node, so the exchanged value is the pre-round partial on both sides.
func (b *collScripts) halvingAllReduce() {
	p, W := b.pow2(), b.spec.Width
	b.deficitIn(p)
	for mask := 1; mask < p; mask <<= 1 {
		for v := 0; v < p; v++ {
			b.send(b.at(v), b.at(v^mask), 0, W)
			b.recv(b.at(v), b.at(v^mask), 0, W, true)
		}
	}
	b.deficitOut(p)
}

// tree: hierarchical subtree combining along the router tree. Every
// router's participants fold into a representative, representatives fold
// upward; broadcast mirrors the combine downward. treeReps returns, per
// tree node, the rank representing the node's subtree: the collective root
// wherever the subtree holds it, else the subtree's first participant in
// child order, -1 when it holds none.
func (b *collScripts) treeReps() []int {
	t := b.topo
	rep := make([]int, t.N+t.NumRouters)
	for node := range rep {
		rep[node] = -1
	}
	for r, addr := range b.spec.Parts {
		rep[addr] = r
	}
	for node := t.N; node < len(rep); node++ { // children precede their parents
		for _, c := range t.Children(node) {
			if cr := rep[c]; cr == b.spec.Root || (cr >= 0 && rep[node] < 0) {
				rep[node] = cr
			}
		}
	}
	return rep
}

func (b *collScripts) treeReduce() { b.treeFold(b.treeReps(), b.topo.Root) }
func (b *collScripts) treeBcast()  { b.treeFan(b.treeReps(), b.topo.Root) }

// treeFold combines node's subtree into its representative, children's
// subtrees first.
func (b *collScripts) treeFold(rep []int, node int) {
	if !b.topo.IsRouter(node) || rep[node] < 0 {
		return
	}
	for _, c := range b.topo.Children(node) {
		b.treeFold(rep, c)
	}
	for _, c := range b.topo.Children(node) {
		if cr := rep[c]; cr >= 0 && cr != rep[node] {
			b.move(cr, rep[node], true)
		}
	}
}

// treeFan distributes the representative's vector over node's subtree,
// each child's representative before that child's own subtree.
func (b *collScripts) treeFan(rep []int, node int) {
	if !b.topo.IsRouter(node) || rep[node] < 0 {
		return
	}
	for _, c := range b.topo.Children(node) {
		if cr := rep[c]; cr >= 0 && cr != rep[node] {
			b.move(rep[node], cr, false)
		}
		b.treeFan(rep, c)
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
			for w := st.lo; w < st.hi; w++ {
				c.fab.SendMessage(from, to, n.buf[w], n.clock)
				c.msgs++
			}
			n.pc++
			continue
		}
		q := n.inbox[st.peer]
		for n.sub < st.hi-st.lo && len(q) > 0 {
			m := q[0]
			q = q[1:]
			w := st.lo + n.sub
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
		if n.sub < st.hi-st.lo {
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
		f.coll = nil
	}()
	f.collOps++
	f.coll = run

	run.remaining = len(run.nodes)
	f.post(at, sim.Event{Op: evCollStart})
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
