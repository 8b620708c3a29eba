package network

import (
	"fmt"

	"dhisq/internal/core"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// Endpoint is the fabric's view of a leaf controller — implemented by
// *core.Controller. Keeping it an interface lets tests drive the fabric with
// scripted endpoints.
type Endpoint interface {
	DeliverMessage(src int, val uint32, arrival sim.Time)
	DeliverSyncSignal(src int, arrival sim.Time)
	DeliverRegionResume(router int, tm, arrival sim.Time)
}

var _ Endpoint = (*core.Controller)(nil)

// Fabric implements core.Fabric over a Topology: nearby sync signals travel
// mesh links, region sync bookings climb the router tree per Figure 8, and
// classical messages use mesh links between neighbors or the tree otherwise.
type Fabric struct {
	Topo *Topology
	eng  *sim.Engine
	log  *telf.Log

	endpoints []Endpoint
	routers   []*Router

	// Contention model (inert when ser == 0; see contention.go).
	ser   sim.Time       // per-message link/port occupancy
	qcap  int            // FIFO depth used for the overflow statistic
	links []sim.Resource // directed mesh links, 4 per controller

	// Collective layer accounting (see collective.go): operations run on
	// this fabric since the last Reset, and the queueing cycles their
	// messages accrued while collActive.
	collOps    uint64
	collStall  sim.Time
	collActive bool
}

// NewFabric builds the fabric and its routers. Endpoints are attached later
// with Attach (controllers need the fabric at construction time).
func NewFabric(eng *sim.Engine, topo *Topology, log *telf.Log) *Fabric {
	if log == nil {
		log = telf.NewLog()
	}
	f := &Fabric{
		Topo: topo, eng: eng, log: log,
		endpoints: make([]Endpoint, topo.N),
		ser:       topo.Cfg.LinkSerialization,
		qcap:      topo.Cfg.LinkQueueCap,
	}
	if f.contention() && topo.Cfg.Topology != TopoTree {
		f.links = make([]sim.Resource, topo.N*4)
	}
	f.routers = make([]*Router, topo.NumRouters)
	for i := range f.routers {
		f.routers[i] = newRouter(f, topo.N+i)
	}
	return f
}

// Attach registers the endpoint serving controller address id.
func (f *Fabric) Attach(id int, ep Endpoint) {
	f.endpoints[id] = ep
}

// Reset restores every router to its post-construction state: pending
// booking FIFOs, statistics and link/port occupancy clear, while the
// topology, attached endpoints and calibrated latencies survive.
// In-flight traffic lives on the engine's event heap, so the owning
// machine must reset the engine in the same breath.
func (f *Fabric) Reset() {
	for _, r := range f.routers {
		clear(r.pending)
		r.Rounds = 0
		r.Messages = 0
		for i := range r.ports {
			r.ports[i].Reset()
		}
	}
	for i := range f.links {
		f.links[i].Reset()
	}
	f.collOps = 0
	f.collStall = 0
	f.collActive = false
}

// Router returns the router object at the given address.
func (f *Fabric) Router(addr int) *Router { return f.routers[addr-f.Topo.N] }

// IsRouter implements core.Fabric.
func (f *Fabric) IsRouter(addr int) bool { return f.Topo.IsRouter(addr) }

// NearbyWindow and RegionWindow implement core.Fabric by delegation: the
// calibrated windows are pure functions of the topology, which is why the
// compiler can book against a *Topology with no fabric built.
func (f *Fabric) NearbyWindow(src, dst int) sim.Time { return f.Topo.NearbyWindow(src, dst) }

func (f *Fabric) RegionWindow(src, router int) sim.Time { return f.Topo.RegionWindow(src, router) }

// SendSyncSignal implements core.Fabric: the 1-bit nearby sync signal.
// Under contention the signal queues at each busy link on its path, so
// its arrival may trail the calibrated window — the partner then resumes
// late and the slip lands in StallSync.
func (f *Fabric) SendSyncSignal(src, dst int, at sim.Time) {
	if dst < 0 || dst >= f.Topo.N {
		panic(fmt.Sprintf("network: sync signal to invalid controller %d", dst))
	}
	var arrival sim.Time
	if f.Topo.Cfg.Topology == TopoTree {
		arrival = f.treeArrival(src, dst, at)
	} else {
		arrival = f.meshArrival(src, dst, at)
	}
	f.schedule(arrival, func() { f.endpoints[dst].DeliverSyncSignal(src, arrival) })
}

// BookRegion implements core.Fabric: starts a Figure 8 region sync booking
// climbing from controller src toward the destination router.
func (f *Fabric) BookRegion(src, router int, ti, at sim.Time) {
	if !f.Topo.IsRouter(router) || !f.Topo.IsAncestor(router, src) {
		// §3.1.3: region sync targets must be an ancestor router.
		panic(fmt.Sprintf("network: sync target %d is not an ancestor router of %d", router, src))
	}
	parent := f.Topo.Parent(src)
	depart := at
	if f.contention() {
		depart = f.reservePort(parent, src, src, at)
	}
	arrival := depart + f.Topo.Cfg.TreeHopLatency
	f.schedule(arrival, func() { f.Router(parent).receiveBooking(src, router, ti, arrival) })
}

// SendMessage implements core.Fabric. Under contention the message
// reserves every link (or router port) on its path in order, inheriting
// the backlog each stage has already committed to — a virtual cut-through
// model: the whole path is booked at send time, so no per-hop events are
// needed and determinism is untouched.
func (f *Fabric) SendMessage(src, dst int, value uint32, at sim.Time) {
	if dst < 0 || dst >= f.Topo.N {
		panic(fmt.Sprintf("network: message to invalid controller %d", dst))
	}
	var arrival sim.Time
	switch {
	case src == dst:
		arrival = at + 1
	case f.Topo.Adjacent(src, dst):
		arrival = f.meshArrival(src, dst, at)
	default:
		arrival = f.treeArrival(src, dst, at)
	}
	f.schedule(arrival, func() { f.endpoints[dst].DeliverMessage(src, value, arrival) })
}

// schedule clamps event times to the engine's present; logical timestamps in
// payloads remain exact (see DESIGN.md §2).
func (f *Fabric) schedule(at sim.Time, fn func()) {
	if now := f.eng.Now(); at < now {
		at = now
	}
	f.eng.At(at, sim.PriDeliver, fn)
}

// ---------------------------------------------------------------------------
// Router — the Figure 8 mechanism
// ---------------------------------------------------------------------------

// Router aggregates region-sync bookings. For each destination router it
// buffers time-points per child; once every child in the subtree has booked,
// it forwards the maximum to its parent, or — when it is itself the
// destination — broadcasts the common time-point to all children.
type Router struct {
	fab  *Fabric
	addr int
	// pending[dest][child] = FIFO of booked time-points. FIFOs keep repeated
	// sync rounds (e.g., per-repetition global syncs) correctly paired.
	pending map[int]map[int][]sim.Time
	// ports are the physical serialization stages of the contention model:
	// one per tree edge, or fewer when Config.RouterPorts shares edges
	// across ports. Empty when contention is disabled.
	ports []sim.Resource
	// Stats
	Rounds   int
	Messages int
}

func newRouter(f *Fabric, addr int) *Router {
	r := &Router{fab: f, addr: addr, pending: map[int]map[int][]sim.Time{}}
	if f.contention() {
		n := f.Topo.NumEdges(addr)
		if p := f.Topo.Cfg.RouterPorts; p > 0 && p < n {
			n = p
		}
		r.ports = make([]sim.Resource, n)
	}
	return r
}

// receiveBooking handles an upward booking message from a child (Figure 8:
// "buffer the time-point; all received? → calculate max; destination? →
// broadcast, else send to parent").
func (r *Router) receiveBooking(child, dest int, t, arrival sim.Time) {
	r.Messages++
	byChild := r.pending[dest]
	if byChild == nil {
		byChild = map[int][]sim.Time{}
		r.pending[dest] = byChild
	}
	byChild[child] = append(byChild[child], t)

	children := r.fab.Topo.Children(r.addr)
	for _, c := range children {
		if len(byChild[c]) == 0 {
			return // still waiting for a sibling
		}
	}
	// All children booked: pop one round and reduce.
	max := sim.Time(0)
	for _, c := range children {
		q := byChild[c]
		if q[0] > max {
			max = q[0]
		}
		byChild[c] = q[1:]
	}
	r.Rounds++
	depart := arrival + r.fab.Topo.Cfg.RouterProc
	if dest == r.addr {
		r.broadcast(dest, max, depart)
		return
	}
	parent := r.fab.Topo.Parent(r.addr)
	if parent < 0 {
		panic(fmt.Sprintf("network: booking for %d climbed past the root", dest))
	}
	if r.fab.contention() {
		depart = r.fab.reservePort(parent, r.addr, -1, depart)
	}
	hop := depart + r.fab.Topo.Cfg.TreeHopLatency
	r.fab.schedule(hop, func() { r.fab.Router(parent).receiveBooking(r.addr, dest, max, hop) })
}

// broadcast pushes the resolved common time-point tm down to every child
// (Figure 8: a message from the parent is broadcast to all children).
func (r *Router) broadcast(dest int, tm, depart sim.Time) {
	r.Messages++
	for _, c := range r.fab.Topo.Children(r.addr) {
		hopStart := depart
		if r.fab.contention() {
			// Each child's copy serializes on the port serving that child's
			// edge: a fanout-F broadcast through P < F+1 ports queues.
			hopStart = r.fab.reservePort(r.addr, c, -1, depart)
		}
		arrival := hopStart + r.fab.Topo.Cfg.TreeHopLatency
		child := c
		if r.fab.Topo.IsRouter(child) {
			r.fab.schedule(arrival, func() {
				cr := r.fab.Router(child)
				cr.broadcast(dest, tm, arrival+r.fab.Topo.Cfg.RouterProc)
			})
		} else {
			r.fab.schedule(arrival, func() {
				r.fab.endpoints[child].DeliverRegionResume(dest, tm, arrival)
			})
		}
	}
}

var _ core.Fabric = (*Fabric)(nil)
