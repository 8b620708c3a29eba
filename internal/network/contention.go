package network

import (
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// This file is the contention layer of the fabric: finite link bandwidth
// on mesh links and router ports. Every mesh link direction and every router
// port is a sim.Resource — a busy-until FIFO that serializes messages at
// Config.LinkSerialization cycles apiece. With LinkSerialization == 0 the
// layer is inert: no resource is ever reserved, no statistic moves, and
// delivery times are byte-identical to the latency-only fabric
// (DESIGN.md §6).

// contention reports whether the finite-bandwidth model is active.
func (f *Fabric) contention() bool { return f.ser > 0 }

// linkIndex maps the directed mesh link from -> to (a neighbor pair) onto
// its resource slot: four directions per controller, +x -x +y -y. On a
// 2-wide torus dimension both directions resolve to the same physical
// link, which is exactly the hardware being modeled.
func (f *Fabric) linkIndex(from, to int) int {
	fx, fy := f.Topo.Coord(from)
	tx, ty := f.Topo.Coord(to)
	w, h := f.Topo.Cfg.MeshW, f.Topo.Cfg.MeshH
	switch {
	case ty == fy && tx == (fx+1)%w:
		return from*4 + 0
	case ty == fy && fx == (tx+1)%w:
		return from*4 + 1
	case tx == fx && ty == (fy+1)%h:
		return from*4 + 2
	case tx == fx && fy == (ty+1)%h:
		return from*4 + 3
	}
	panic("network: linkIndex on non-adjacent pair")
}

// reserveLink books the directed mesh link from -> to for one message
// wanting to enter at `at`, charging any queueing wait to controller src.
func (f *Fabric) reserveLink(from, to, src int, at sim.Time) sim.Time {
	depart, waited := f.links[f.linkIndex(from, to)].Reserve(at, f.ser)
	f.chargeStall(from, to, src, waited, depart)
	return depart
}

// reservePort books router r's port serving its edge to neighbor for one
// message entering at `at`.
func (f *Fabric) reservePort(r, neighbor, src int, at sim.Time) sim.Time {
	edge := f.Topo.EdgeIndex(r, neighbor)
	if edge < 0 {
		// Not a tree edge; treat as uncontended rather than corrupt state.
		return at
	}
	depart, waited := f.Router(r).ports[edge].Reserve(at, f.ser)
	f.chargeStall(r, neighbor, src, waited, depart)
	return depart
}

// chargeStall records a queueing wait on the directed edge node -> far: a
// NetStall event on the node where the backlog formed and, for a
// controller's own message (src >= 0; a router's booking and broadcast
// hops pass -1), a Stall{StallNet} on the controller that sent it. Both
// name far as their cause.
func (f *Fabric) chargeStall(node, far, src int, waited, depart sim.Time) {
	if waited <= 0 {
		return
	}
	f.log.Add(telf.Event{Time: depart, Node: node, Kind: telf.NetStall, A: int64(src), B: waited, C: int64(far)})
	if src >= 0 {
		f.log.Add(telf.Event{Time: depart, Node: src, Kind: telf.Stall, A: telf.StallNet, B: waited, C: int64(far)})
	}
}

// meshArrival computes when a signal sent by src at `at` reaches dst over
// intra-layer links, walking the x-then-y path hop by hop and reserving
// each directed link. Without contention it reduces exactly to
// at + NearbyWindow(src, dst).
func (f *Fabric) meshArrival(src, dst int, at sim.Time) sim.Time {
	per := f.Topo.Cfg.NeighborLatency
	if !f.contention() {
		d := f.Topo.MeshDistance(src, dst)
		if d == 0 {
			d = 1
		}
		return at + sim.Time(d)*per
	}
	t := at
	cur := src
	hops := 0
	for cur != dst {
		next := f.Topo.MeshStep(cur, dst)
		t = f.reserveLink(cur, next, src, t) + per
		cur = next
		hops++
	}
	if hops == 0 {
		t = at + per // self-signal degenerate case, matches MeshDistance 0 -> 1
	}
	return t
}

// treeArrival computes when a message sent by src at `at` reaches dst over
// the router tree, reserving the router-side port of every edge on the
// path. Without contention it reduces exactly to
// at + hops*TreeHopLatency + (hops-1)*RouterProc.
func (f *Fabric) treeArrival(src, dst int, at sim.Time) sim.Time {
	if !f.contention() {
		// Uncontended latency is a pure function of the hop count; skip
		// materializing the path (three slice allocations per message).
		hops := f.Topo.TreePathHops(src, dst)
		t := at + sim.Time(hops)*f.Topo.Cfg.TreeHopLatency
		if hops > 1 {
			t += sim.Time(hops-1) * f.Topo.Cfg.RouterProc
		}
		return t
	}
	path := f.Topo.TreePath(src, dst)
	t := at
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		// The router terminating this edge owns the port: b when climbing
		// (a's parent), a when descending (b's parent).
		router := b
		if f.Topo.Parent(b) == a {
			router = a
		}
		t = f.reservePort(router, a+b-router, src, t)
		t += f.Topo.Cfg.TreeHopLatency
		if i+2 < len(path) {
			t += f.Topo.Cfg.RouterProc
		}
	}
	return t
}

// CongestionStats aggregates fabric-wide contention counters: what one shot
// reports in machine.Result.Net and — folded with Merge — what a job's
// shots add up to. It is the one congestion digest; the service's
// /v1/stats view (service.NetStats) is read off it. Where a wait formed is
// the TELF log's: net_stall events summed by (Node, C) give each directed
// edge's stall. All zero when the model is disabled.
type CongestionStats struct {
	Enabled bool `json:"enabled"`
	// Mesh links.
	LinkMessages uint64   `json:"link_messages"`
	LinkStall    sim.Time `json:"link_stall_cycles"`
	LinkMaxQueue int      `json:"link_max_queue"`
	// Router ports.
	PortMessages uint64   `json:"port_messages"`
	PortStall    sim.Time `json:"port_stall_cycles"`
	PortMaxQueue int      `json:"port_max_queue"`
	// PortBusiest is the largest occupancy of any single port: divided by
	// the makespan it is a 0..1 utilization.
	PortBusiest sim.Time `json:"port_busiest_cycles"`
}

// TotalStall is every cycle any message spent queued anywhere.
func (s CongestionStats) TotalStall() sim.Time { return s.LinkStall + s.PortStall }

// MaxQueue is the deepest backlog observed at any link or port.
func (s CongestionStats) MaxQueue() int {
	if s.LinkMaxQueue > s.PortMaxQueue {
		return s.LinkMaxQueue
	}
	return s.PortMaxQueue
}

// Merge returns the digest of s and o together: counts and stalls add, the
// *MaxQueue and *Busiest fields take the larger value, and
// Enabled is ORed. Merge is commutative and associative and the zero value
// is its identity, so folding a set of snapshots in any order or grouping
// gives the same digest.
func (s CongestionStats) Merge(o CongestionStats) CongestionStats {
	s.Enabled = s.Enabled || o.Enabled
	s.LinkMessages += o.LinkMessages
	s.LinkStall += o.LinkStall
	s.LinkMaxQueue = max(s.LinkMaxQueue, o.LinkMaxQueue)
	s.PortMessages += o.PortMessages
	s.PortStall += o.PortStall
	s.PortMaxQueue = max(s.PortMaxQueue, o.PortMaxQueue)
	s.PortBusiest = max(s.PortBusiest, o.PortBusiest)
	return s
}

// Congestion snapshots the fabric's contention counters for the run (or
// shot) since the last Reset.
func (f *Fabric) Congestion() CongestionStats {
	st := CongestionStats{Enabled: f.contention()}
	if !st.Enabled {
		return st
	}
	for i := range f.links {
		r := &f.links[i]
		st.LinkMessages += r.Messages
		st.LinkStall += r.StallCycles
		if r.MaxQueue > st.LinkMaxQueue {
			st.LinkMaxQueue = r.MaxQueue
		}
	}
	for _, rt := range f.routers {
		for i := range rt.ports {
			p := &rt.ports[i]
			st.PortMessages += p.Messages
			st.PortStall += p.StallCycles
			if p.BusyCycles > st.PortBusiest {
				st.PortBusiest = p.BusyCycles
			}
			if p.MaxQueue > st.PortMaxQueue {
				st.PortMaxQueue = p.MaxQueue
			}
		}
	}
	return st
}
