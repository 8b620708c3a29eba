package network

import (
	"cmp"
	"slices"

	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// This file is the contention layer of the fabric: finite link bandwidth
// and router port sharing. Every mesh link direction and every router
// port is a sim.Resource — a busy-until FIFO that serializes messages at
// Config.LinkSerialization cycles apiece. With LinkSerialization == 0 the
// layer is inert: no resource is ever reserved, no statistic moves, and
// delivery times are byte-identical to the latency-only fabric
// (DESIGN.md §6).

// netStallSink is implemented by endpoints that account send-side network
// stalls (core.Controller records them in Stats.StallNet). The fabric
// attributes a message's total queueing wait — across every link of its
// path — to the controller that sent it.
type netStallSink interface {
	AddNetStall(d sim.Time)
}

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

// linkEndpoints is the inverse of linkIndex: the (from, to) controller
// pair of resource slot i. Slots for mesh-edge directions that do not
// exist on a non-torus mesh are never reserved, so callers only see
// indices whose neighbor arithmetic is valid.
func (f *Fabric) linkEndpoints(i int) (from, to int) {
	from = i / 4
	fx, fy := f.Topo.Coord(from)
	w, h := f.Topo.Cfg.MeshW, f.Topo.Cfg.MeshH
	tx, ty := fx, fy
	switch i % 4 {
	case 0: // +x
		tx = (fx + 1) % w
	case 1: // -x
		tx = (fx - 1 + w) % w
	case 2: // +y
		ty = (fy + 1) % h
	case 3: // -y
		ty = (fy - 1 + h) % h
	}
	return from, ty*w + tx
}

// reserveLink books the directed mesh link from -> to for one message
// wanting to enter at `at`, charging any queueing wait to controller src.
func (f *Fabric) reserveLink(from, to, src int, at sim.Time) sim.Time {
	depart, waited := f.links[f.linkIndex(from, to)].Reserve(at, f.ser, f.qcap)
	f.chargeStall(from, src, waited, depart)
	return depart
}

// reservePort books router r's port serving its edge to neighbor for one
// message entering at `at`. With fewer ports than edges (Config.
// RouterPorts), edges share ports round-robin and contend.
func (f *Fabric) reservePort(r, neighbor, src int, at sim.Time) sim.Time {
	rt := f.Router(r)
	edge := f.Topo.EdgeIndex(r, neighbor)
	if edge < 0 {
		// Not a tree edge; treat as uncontended rather than corrupt state.
		return at
	}
	port := edge % len(rt.ports)
	depart, waited := rt.ports[port].Reserve(at, f.ser, f.qcap)
	f.chargeStall(r, src, waited, depart)
	return depart
}

// chargeStall records a queueing wait: a TELF event on the node where the
// backlog formed, and send-side attribution to the source controller.
func (f *Fabric) chargeStall(node, src int, waited, depart sim.Time) {
	if waited <= 0 {
		return
	}
	if f.coll != nil {
		f.collStall += waited
	}
	f.log.Add(telf.Event{Time: depart, Node: node, Kind: telf.NetStall, A: int64(src), B: waited})
	if src >= 0 && src < len(f.endpoints) {
		if s, ok := f.endpoints[src].(netStallSink); ok {
			s.AddNetStall(waited)
		}
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
		if f.contention() {
			// The router terminating this edge owns the port: b when
			// climbing (a's parent), a when descending (b's parent).
			router := b
			if f.Topo.Parent(b) == a {
				router = a
			}
			t = f.reservePort(router, a+b-router, src, t)
		}
		t += f.Topo.Cfg.TreeHopLatency
		if i+2 < len(path) {
			t += f.Topo.Cfg.RouterProc
		}
	}
	return t
}

// CongestionStats aggregates fabric-wide contention counters: what one shot
// reports in machine.Result.Net, and — folded with Merge — what a job's
// shots, a pool group's jobs and the re-place search read. It is the one
// congestion digest; the service's /v1/stats view (service.NetStats) is
// read off it. All zero when the model is disabled.
type CongestionStats struct {
	Enabled bool `json:"enabled"`
	// Mesh links.
	LinkMessages  uint64   `json:"link_messages"`
	LinkStall     sim.Time `json:"link_stall_cycles"`
	LinkMaxQueue  int      `json:"link_max_queue"`
	LinkOverflows uint64   `json:"link_overflows"`
	// Router ports.
	PortMessages  uint64   `json:"port_messages"`
	PortStall     sim.Time `json:"port_stall_cycles"`
	PortMaxQueue  int      `json:"port_max_queue"`
	PortOverflows uint64   `json:"port_overflows"`
	// RouterBusiest is the largest total port occupancy of any single
	// router (can exceed the makespan on a many-port router); PortBusiest
	// is the largest occupancy of any single port — divided by the
	// makespan it is a true 0..1 utilization.
	RouterBusiest sim.Time `json:"router_busiest_cycles"`
	PortBusiest   sim.Time `json:"port_busiest_cycles"`
	RouterBusy    sim.Time `json:"router_busy_cycles"`
	// Collective layer (collective.go): operations executed on the fabric
	// and the queueing cycles their messages accrued at busy links and
	// ports. CollectiveOps counts even with contention disabled — the
	// layer runs either way; only the stall cycles need finite bandwidth.
	CollectiveOps   uint64   `json:"collective_ops"`
	CollectiveStall sim.Time `json:"collective_stall_cycles"`
	// Links is the per-link breakdown behind the aggregate Link* counters:
	// one entry per directed mesh link that carried (or queued) at least one
	// message, sorted by (From, To). It is what the re-place search reads to
	// attribute stalls to specific controller pairs; aggregate-only
	// consumers can ignore it.
	Links []LinkStat `json:"links,omitempty"`
}

// LinkStat is one directed mesh link's contention snapshot.
type LinkStat struct {
	From     int      `json:"from"` // sending controller
	To       int      `json:"to"`   // receiving neighbor controller
	Messages uint64   `json:"messages"`
	Stall    sim.Time `json:"stall_cycles"`
	MaxQueue int      `json:"max_queue"`
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

// Merge returns the digest of s and o together: counts, stalls and busy
// cycles add, the *MaxQueue and *Busiest fields take the larger value,
// Enabled is ORed, and Links merge by (From, To). Merge is commutative and
// associative and the zero value is its identity, so folding a set of
// snapshots in any order or grouping gives the same digest. Both Links
// must be sorted by (From, To), as Congestion emits them; the result's is
// too. Neither input's Links is written, though the result may share one.
func (s CongestionStats) Merge(o CongestionStats) CongestionStats {
	s.Enabled = s.Enabled || o.Enabled
	s.LinkMessages += o.LinkMessages
	s.LinkStall += o.LinkStall
	s.LinkMaxQueue = max(s.LinkMaxQueue, o.LinkMaxQueue)
	s.LinkOverflows += o.LinkOverflows
	s.PortMessages += o.PortMessages
	s.PortStall += o.PortStall
	s.PortMaxQueue = max(s.PortMaxQueue, o.PortMaxQueue)
	s.PortOverflows += o.PortOverflows
	s.RouterBusiest = max(s.RouterBusiest, o.RouterBusiest)
	s.PortBusiest = max(s.PortBusiest, o.PortBusiest)
	s.RouterBusy += o.RouterBusy
	s.CollectiveOps += o.CollectiveOps
	s.CollectiveStall += o.CollectiveStall
	s.Links = mergeLinks(s.Links, o.Links)
	return s
}

// mergeLinks merges two (From, To)-sorted link lists, combining the
// entries of one link as Merge combines the totals.
func mergeLinks(a, b []LinkStat) []LinkStat {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]LinkStat, 0, max(len(a), len(b)))
	for len(a) > 0 && len(b) > 0 {
		switch c := compareLinks(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			l := a[0]
			l.Messages += b[0].Messages
			l.Stall += b[0].Stall
			l.MaxQueue = max(l.MaxQueue, b[0].MaxQueue)
			out, a, b = append(out, l), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// compareLinks orders links by (From, To).
func compareLinks(a, b LinkStat) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

// Congestion snapshots the fabric's contention counters for the run (or
// shot) since the last Reset.
func (f *Fabric) Congestion() CongestionStats {
	st := CongestionStats{
		Enabled:         f.contention(),
		CollectiveOps:   f.collOps,
		CollectiveStall: f.collStall,
	}
	if !st.Enabled {
		return st
	}
	for i := range f.links {
		r := &f.links[i]
		st.LinkMessages += r.Messages
		st.LinkStall += r.StallCycles
		st.LinkOverflows += r.Overflows
		if r.MaxQueue > st.LinkMaxQueue {
			st.LinkMaxQueue = r.MaxQueue
		}
		if r.Messages > 0 || r.StallCycles > 0 {
			from, to := f.linkEndpoints(i)
			st.Links = append(st.Links, LinkStat{
				From: from, To: to,
				Messages: r.Messages, Stall: r.StallCycles, MaxQueue: r.MaxQueue,
			})
		}
	}
	for _, rt := range f.routers {
		var busy sim.Time
		for i := range rt.ports {
			p := &rt.ports[i]
			st.PortMessages += p.Messages
			st.PortStall += p.StallCycles
			st.PortOverflows += p.Overflows
			busy += p.BusyCycles
			if p.BusyCycles > st.PortBusiest {
				st.PortBusiest = p.BusyCycles
			}
			if p.MaxQueue > st.PortMaxQueue {
				st.PortMaxQueue = p.MaxQueue
			}
		}
		st.RouterBusy += busy
		if busy > st.RouterBusiest {
			st.RouterBusiest = busy
		}
	}
	// Slot order is From-major but not To-sorted; Merge wants (From, To).
	slices.SortFunc(st.Links, compareLinks)
	return st
}
