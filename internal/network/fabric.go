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
	hid  sim.HandlerID // the fabric's own typed events (HandleEvent)
	log  *telf.Log

	endpoints []Endpoint
	routers   []*Router

	// Contention model (inert when ser == 0; see contention.go).
	ser   sim.Time       // per-message link/port occupancy
	qcap  int            // FIFO depth used for the overflow statistic
	links []sim.Resource // directed mesh links, 4 per controller

	// Collective layer (see collective.go): the collective executing now
	// (nil between them), operations run on this fabric since the last
	// Reset, and the queueing cycles their messages accrued.
	coll      *collRun
	collOps   uint64
	collStall sim.Time
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
	f.hid = eng.Bind(f)
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
		for _, byChild := range r.pending {
			for i := range byChild {
				byChild[i].Reset()
			}
		}
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
	f.coll = nil
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
	f.post(arrival, sim.Event{Op: evSyncSignal, Node: int32(dst), A: int64(src)})
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
	f.post(arrival, sim.Event{Op: evBooking, Node: int32(parent), A: bookingKey(src, router), B: ti})
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
	f.post(arrival, sim.Event{Op: evMessage, Node: int32(dst), A: int64(src), B: int64(value)})
}

// The fabric's typed engine events. Node is where the event lands — a
// controller for the deliveries, a router otherwise — and C is its logical
// arrival time, which post fills in.
const (
	evSyncSignal uint8 = iota // DeliverSyncSignal: A src
	evMessage                 // DeliverMessage: A src, B value
	evResume                  // DeliverRegionResume: A router, B tm
	evBooking                 // receiveBooking: A bookingKey(child, dest), B booked time-point
	evBroadcast               // broadcast one level further down: A dest, B tm
	evCollStart               // start every node of the running collective (f.coll)
)

// bookingKey packs the two addresses of an evBooking into one operand.
func bookingKey(child, dest int) int64 { return int64(child)<<32 | int64(dest) }

// post schedules a fabric event for its arrival time, clamped to the
// engine's present; the logical timestamp rides in the payload and remains
// exact (see DESIGN.md §2).
func (f *Fabric) post(arrival sim.Time, ev sim.Event) {
	ev.C = arrival
	f.eng.Post(max(arrival, f.eng.Now()), sim.PriDeliver, f.hid, ev)
}

// HandleEvent implements sim.Handler.
func (f *Fabric) HandleEvent(ev sim.Event) {
	node, arrival := int(ev.Node), ev.C
	switch ev.Op {
	case evSyncSignal:
		f.endpoints[node].DeliverSyncSignal(int(ev.A), arrival)
	case evMessage:
		f.endpoints[node].DeliverMessage(int(ev.A), uint32(ev.B), arrival)
	case evResume:
		f.endpoints[node].DeliverRegionResume(int(ev.A), ev.B, arrival)
	case evBooking:
		f.Router(node).receiveBooking(int(ev.A>>32), int(int32(ev.A)), ev.B, arrival)
	case evBroadcast:
		f.Router(node).broadcast(int(ev.A), ev.B, arrival+f.Topo.Cfg.RouterProc)
	case evCollStart:
		for _, n := range f.coll.nodes {
			n.advance()
		}
	}
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
	// pending[depth of dest][child position] = FIFO of booked time-points.
	// FIFOs keep repeated sync rounds (e.g., per-repetition global syncs)
	// correctly paired. Dense: a destination is this router or an ancestor,
	// one per tree level, and children are a contiguous address run. A
	// destination's row is made on its first booking and kept across Reset.
	pending [][]sim.Fifo[sim.Time]
	// ports are the physical serialization stages of the contention model:
	// one per tree edge, or fewer when Config.RouterPorts shares edges
	// across ports. Empty when contention is disabled.
	ports []sim.Resource
	// Stats
	Rounds   int
	Messages int
}

func newRouter(f *Fabric, addr int) *Router {
	r := &Router{fab: f, addr: addr, pending: make([][]sim.Fifo[sim.Time], f.Topo.depth[addr]+1)}
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
	children := r.fab.Topo.Children(r.addr)
	level := r.fab.Topo.depth[dest]
	byChild := r.pending[level]
	if byChild == nil {
		byChild = make([]sim.Fifo[sim.Time], len(children))
		r.pending[level] = byChild
	}
	byChild[child-children[0]].Push(t)
	for i := range byChild {
		if byChild[i].Len() == 0 {
			return // still waiting for a sibling
		}
	}
	// All children booked: pop one round and reduce.
	max := sim.Time(0)
	for i := range byChild {
		if t := byChild[i].Pop(); t > max {
			max = t
		}
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
	r.fab.post(hop, sim.Event{Op: evBooking, Node: int32(parent), A: bookingKey(r.addr, dest), B: max})
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
		op := evResume
		if r.fab.Topo.IsRouter(c) {
			op = evBroadcast
		}
		r.fab.post(hopStart+r.fab.Topo.Cfg.TreeHopLatency, sim.Event{Op: op, Node: int32(c), A: int64(dest), B: tm})
	}
}

var _ core.Fabric = (*Fabric)(nil)
