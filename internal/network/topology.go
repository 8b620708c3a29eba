// Package network implements the distributed fabric of Distributed-HISQ
// (§5): the hybrid topology — a mesh-like intra-layer connecting leaf
// controllers (mirroring the qubit device topology) plus a tree-like
// inter-layer of routers — the Figure 8 routing mechanism for region-level
// synchronization, and classical message routing for feedback.
package network

import (
	"fmt"
	"sync"

	"dhisq/internal/registry"
	"dhisq/internal/sim"
)

// TopologyKind selects the intra-layer structure connecting leaf
// controllers. The inter-layer router tree is present in every kind.
type TopologyKind int

const (
	// TopoMesh is the paper's hybrid topology (§5.1): a 2-D nearest-neighbor
	// mesh mirroring the qubit device plus the balanced router tree. The
	// zero value, so legacy configs are unchanged.
	TopoMesh TopologyKind = iota
	// TopoTorus adds wraparound links to the mesh: row and column ends are
	// adjacent, halving worst-case mesh distance on large grids.
	TopoTorus
	// TopoTree removes the mesh entirely: every signal and message —
	// nearby syncs included — climbs the router tree, whose fanout
	// (RouterFanout) is the only connectivity knob. The "fat-tree-only"
	// point of the topology study.
	TopoTree
)

// topologies is the fixed registry, in enum order.
var topologies = []TopologyKind{TopoMesh, TopoTorus, TopoTree}

var topologyNames = [...]string{"mesh", "torus", "tree"}

func (k TopologyKind) String() string {
	if k >= 0 && int(k) < len(topologyNames) {
		return topologyNames[k]
	}
	return fmt.Sprintf("topology(%d)", int(k))
}

// ParseTopology maps a CLI flag value onto a TopologyKind ("" = mesh).
func ParseTopology(s string) (TopologyKind, error) {
	return registry.Lookup("topology", s, "mesh", topologies, TopologyKind.String)
}

// Config parameterizes the fabric. All latencies are in cycles (4 ns).
type Config struct {
	// MeshW, MeshH give the leaf controller grid; controller i sits at
	// (i%MeshW, i/MeshW), matching a qubit-per-controller device layout.
	MeshW, MeshH int
	// RouterFanout is the number of children per router in the balanced
	// inter-layer tree (§5.1 adopts a balanced tree of minimal height).
	RouterFanout int
	// NeighborLatency is the one-way latency of a mesh link between adjacent
	// controllers — the calibrated N of nearby BISP sync (§4.1).
	NeighborLatency sim.Time
	// TreeHopLatency is the one-way latency of one tree edge.
	TreeHopLatency sim.Time
	// RouterProc is the processing delay a router adds per forwarded message.
	RouterProc sim.Time
	// Topology selects the intra-layer structure (zero value = TopoMesh,
	// the legacy hybrid topology).
	Topology TopologyKind
	// LinkSerialization is the occupancy one message places on a mesh link
	// or router port, in cycles — the reciprocal link bandwidth. 0 models
	// infinite bandwidth: no queueing, no congestion statistics, schedules
	// byte-identical to the pre-contention fabric (DESIGN.md §6).
	LinkSerialization sim.Time
	// RouterPorts is the number of physical ports per router. Routers have
	// one logical edge per child plus one to their parent; with fewer
	// ports than edges, edges share ports round-robin and contend. 0 gives
	// every edge a dedicated port (no port sharing).
	RouterPorts int
	// LinkQueueCap bounds the per-link/per-port FIFO depth tracked by the
	// congestion statistics; arrivals that find the backlog at or above
	// the cap are counted as overflows. Messages are never dropped (a
	// lossy fabric would break BISP). 0 = unbounded.
	LinkQueueCap int
}

// NearSquareMesh returns the smallest near-square controller mesh
// (w, h) that fits n qubits: w is the ceiling square root, h the rows
// needed. It is THE default placement heuristic — the facade's Sample,
// the job service, and the CLIs all place unmapped circuits with it, so
// the same circuit fingerprints identically at every entry point.
func NearSquareMesh(n int) (w, h int) {
	w = 1
	for w*w < n {
		w++
	}
	return w, (n + w - 1) / w
}

// DefaultConfig returns a fabric sized for n controllers with the latency
// constants used throughout the evaluation: 2-cycle (8 ns) mesh links,
// 4-cycle (16 ns) tree hops, 1-cycle router processing.
func DefaultConfig(n int) Config {
	w, h := NearSquareMesh(n)
	return Config{
		MeshW:           w,
		MeshH:           h,
		RouterFanout:    4,
		NeighborLatency: 2,
		TreeHopLatency:  4,
		RouterProc:      1,
	}
}

// Topology is the static structure: controller addresses are 0..N-1 in
// row-major mesh order; router addresses follow, level by level, ending at
// the root.
type Topology struct {
	Cfg        Config
	N          int // number of leaf controllers
	NumRouters int
	parent     []int    // node -> parent router (root's parent = -1)
	children   [][]int  // router-local (indexed by router-N): child node addrs
	depth      []int    // node -> depth (root = 0)
	maxDown    []int    // node -> tree edges down to its deepest leaf (0 for a controller)
	xy         [][2]int // controller -> mesh (x, y), read on every sync signal
	Root       int

	// TreePath memo: the contention layer re-derives the same paths for
	// every message, so computed paths are cached and shared. Guarded by a
	// mutex because runner replicas may probe placements concurrently.
	pathMu    sync.Mutex
	pathCache map[int64][]int
}

// Shape is the arithmetic of NewTopology — the controller count N and the
// root router's address, with the same checks and no tree built. The
// balanced tree groups each level into parents of RouterFanout children until
// one node remains (a single controller still gets a root router), routers
// addressed level by level after the controllers, so the root comes last.
// Compile options and the artifact key need exactly these two numbers.
func (c Config) Shape() (n, root int, err error) {
	n = c.MeshW * c.MeshH
	if n <= 0 {
		return 0, 0, fmt.Errorf("network: empty mesh %dx%d", c.MeshW, c.MeshH)
	}
	if c.RouterFanout < 2 {
		return 0, 0, fmt.Errorf("network: router fanout %d < 2", c.RouterFanout)
	}
	routers := 0
	for level := n; level > 1 || routers == 0; {
		level = (level + c.RouterFanout - 1) / c.RouterFanout
		routers += level
	}
	return n, n + routers - 1, nil
}

// NewTopology builds the hybrid topology for the given config.
func NewTopology(cfg Config) (*Topology, error) {
	n, root, err := cfg.Shape()
	if err != nil {
		return nil, err
	}
	nodes := root + 1
	t := &Topology{
		Cfg: cfg, N: n, NumRouters: nodes - n, Root: root,
		parent:    make([]int, nodes),
		children:  make([][]int, nodes-n),
		depth:     make([]int, nodes),
		maxDown:   make([]int, nodes),
		xy:        make([][2]int, n),
		pathCache: map[int64][]int{},
	}
	for c := range t.xy {
		t.xy[c] = [2]int{c % cfg.MeshW, c / cfg.MeshW}
	}
	// Build the balanced tree bottom-up. Each level is a contiguous address
	// run [lo, hi): it is grouped into parents of RouterFanout consecutive
	// children, which form the next run, until one node remains. Every node
	// of level L is therefore L edges above its deepest leaf (maxDown).
	for lo, hi, level := 0, n, 1; hi <= root; level++ {
		next := hi
		for i := lo; i < hi; i += cfg.RouterFanout {
			kids := make([]int, min(cfg.RouterFanout, hi-i))
			for k := range kids {
				kids[k] = i + k
				t.parent[i+k] = next
			}
			t.children[next-n] = kids
			t.maxDown[next] = level
			next++
		}
		lo, hi = hi, next
	}
	// Parents have higher addresses than their children: walk down from the
	// root so every parent's depth is final before its children read it.
	t.parent[root] = -1
	for node := root - 1; node >= 0; node-- {
		t.depth[node] = t.depth[t.parent[node]] + 1
	}
	return t, nil
}

// IsRouter reports whether addr names a router.
func (t *Topology) IsRouter(addr int) bool { return addr >= t.N && addr < t.N+t.NumRouters }

// Parent returns the parent router of a node (-1 for the root).
func (t *Topology) Parent(addr int) int { return t.parent[addr] }

// Children returns the child nodes of a router.
func (t *Topology) Children(router int) []int { return t.children[router-t.N] }

// Coord returns the mesh coordinates of a controller.
func (t *Topology) Coord(ctrl int) (x, y int) { return t.xy[ctrl][0], t.xy[ctrl][1] }

// MeshDistance is the distance between two controllers on the intra-layer
// grid: Manhattan for TopoMesh, wraparound Manhattan for TopoTorus. It is
// a metric either way (symmetric, triangle inequality) — the randomized
// invariant tests assert this on sampled triples. TopoTree keeps the
// geometric metric for placement heuristics even though it has no mesh
// links.
func (t *Topology) MeshDistance(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if t.Cfg.Topology == TopoTorus {
		if wrap := t.Cfg.MeshW - dx; wrap < dx {
			dx = wrap
		}
		if wrap := t.Cfg.MeshH - dy; wrap < dy {
			dy = wrap
		}
	}
	return dx + dy
}

// Adjacent reports whether two controllers share an intra-layer link.
// TopoTree has no intra-layer links at all.
func (t *Topology) Adjacent(a, b int) bool {
	if t.Cfg.Topology == TopoTree {
		return false
	}
	return a < t.N && b < t.N && t.MeshDistance(a, b) == 1
}

// MeshStep returns the controller one intra-layer link from a toward b
// (x first, then y; torus steps wrap when the wraparound direction is
// shorter). a == b returns a.
func (t *Topology) MeshStep(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	w, h := t.Cfg.MeshW, t.Cfg.MeshH
	step := func(from, to, size int) int {
		if from == to {
			return from
		}
		fwd := to - from
		if fwd < 0 {
			fwd = -fwd
		}
		dir := 1
		if to < from {
			dir = -1
		}
		if t.Cfg.Topology == TopoTorus && size-fwd < fwd {
			dir = -dir // wrapping is shorter
		}
		return ((from+dir)%size + size) % size
	}
	if ax != bx {
		return ay*w + step(ax, bx, w)
	}
	if ay != by {
		return step(ay, by, h)*w + ax
	}
	return a
}

// TreePath returns the node sequence from a to b through their lowest
// common ancestor, endpoints included. It is the hop-by-hop form of
// TreePathHops: len(TreePath(a,b))-1 == TreePathHops(a,b).
//
// The returned slice is a shared, memoized table — the contention layer
// walks the same paths for every message — and must not be mutated.
func (t *Topology) TreePath(a, b int) []int {
	key := int64(a)*int64(t.N+t.NumRouters) + int64(b)
	t.pathMu.Lock()
	if p, ok := t.pathCache[key]; ok {
		t.pathMu.Unlock()
		return p
	}
	t.pathMu.Unlock()
	var up []int
	var down []int
	da, db := t.depth[a], t.depth[b]
	for da > db {
		up = append(up, a)
		a = t.parent[a]
		da--
	}
	for db > da {
		down = append(down, b)
		b = t.parent[b]
		db--
	}
	for a != b {
		up = append(up, a)
		down = append(down, b)
		a, b = t.parent[a], t.parent[b]
	}
	path := append(up, a)
	for i := len(down) - 1; i >= 0; i-- {
		path = append(path, down[i])
	}
	t.pathMu.Lock()
	t.pathCache[key] = path
	t.pathMu.Unlock()
	return path
}

// IsAncestor reports whether router r is an ancestor of node (controllers'
// region sync targets must be ancestors, §3.1.3).
func (t *Topology) IsAncestor(r, node int) bool {
	for p := t.parent[node]; p >= 0; p = t.parent[p] {
		if p == r {
			return true
		}
	}
	return false
}

// HopsUp counts tree edges from node up to ancestor router r.
func (t *Topology) HopsUp(node, r int) int {
	h := 0
	for p := node; p != r; p = t.parent[p] {
		if p < 0 {
			return -1
		}
		h++
	}
	return h
}

// MaxHopsDown returns the maximum number of tree edges from router r down to
// any leaf controller in its subtree (0 for anything that is not a router).
// A pure function of the topology, read at every region sync of every shot,
// so NewTopology tabulates it.
func (t *Topology) MaxHopsDown(r int) int {
	if !t.IsRouter(r) {
		return 0
	}
	return t.maxDown[r]
}

// EdgeIndex returns the index of router r's edge to neighbor — children
// count 0..k-1 in child order, the parent edge is k. -1 if the nodes do
// not share a tree edge. Port contention maps edges onto physical ports
// with this index.
func (t *Topology) EdgeIndex(r, neighbor int) int {
	cs := t.Children(r)
	for i, c := range cs {
		if c == neighbor {
			return i
		}
	}
	if t.parent[r] == neighbor {
		return len(cs)
	}
	return -1
}

// NumEdges returns how many tree edges router r terminates (children plus
// parent; the root has no parent edge).
func (t *Topology) NumEdges(r int) int {
	n := len(t.Children(r))
	if t.parent[r] >= 0 {
		n++
	}
	return n
}

// TreePathHops counts tree edges on the path between two nodes via their
// lowest common ancestor.
func (t *Topology) TreePathHops(a, b int) int {
	h := 0
	da, db := t.depth[a], t.depth[b]
	for da > db {
		a = t.parent[a]
		da--
		h++
	}
	for db > da {
		b = t.parent[b]
		db--
		h++
	}
	for a != b {
		a, b = t.parent[a], t.parent[b]
		h += 2
	}
	return h
}

// NearbyWindow is the calibrated SyncU countdown for a neighbor pair.
// Non-adjacent pairs get distance-scaled latency — the
// compiler only emits nearest-neighbor syncs, but hand-written programs
// remain well-defined. On TopoTree there are no intra-layer links, so the
// calibrated window is the uncontended tree-path latency. Either way the
// window is a pure function of the topology: congestion can delay the
// actual signal past it (the sync then resolves late and the stall is
// accounted), but never changes the compiled booking.
func (t *Topology) NearbyWindow(src, dst int) sim.Time {
	if t.Cfg.Topology == TopoTree {
		hops := t.TreePathHops(src, dst)
		if hops == 0 {
			return t.Cfg.TreeHopLatency
		}
		return sim.Time(hops)*t.Cfg.TreeHopLatency + sim.Time(hops-1)*t.Cfg.RouterProc
	}
	d := t.MeshDistance(src, dst)
	if d == 0 {
		d = 1
	}
	return sim.Time(d) * t.Cfg.NeighborLatency
}

// RegionWindow is the booking lead time for (controller, router): exact
// uplink latency plus the worst-case downlink latency in the router's
// subtree, making the time-point broadcast always arrive by Tm (DESIGN.md
// §2.4).
func (t *Topology) RegionWindow(src, router int) sim.Time {
	up := t.HopsUp(src, router)
	if up < 0 {
		return t.Cfg.TreeHopLatency // not an ancestor; caller will error out
	}
	down := t.MaxHopsDown(router)
	perHop := t.Cfg.TreeHopLatency + t.Cfg.RouterProc
	return sim.Time(up)*perHop + sim.Time(down)*perHop
}
