package network

import (
	"maps"
	"testing"

	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

func fabricFor(t *testing.T, cfg Config) (*Fabric, *sim.Engine, []*scriptedEndpoint, *telf.Log) {
	t.Helper()
	topo := mustTopo(t, cfg)
	eng := sim.NewEngine()
	log := telf.NewLog()
	fab := NewFabric(eng, topo, log)
	eps := make([]*scriptedEndpoint, topo.N)
	for i := range eps {
		eps[i] = &scriptedEndpoint{}
		fab.Attach(i, eps[i])
	}
	return fab, eng, eps, log
}

func TestLinkSerializationQueuesMessages(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.LinkSerialization = 3
	fab, eng, eps, log := fabricFor(t, cfg)

	// Two messages over the same directed link in the same cycle: the
	// second must wait out the first's 3-cycle serialization.
	fab.SendMessage(0, 1, 1, 100)
	fab.SendMessage(0, 1, 2, 100)
	eng.Run(0)

	want := []sim.Time{100 + cfg.NeighborLatency, 103 + cfg.NeighborLatency}
	if len(eps[1].msgAt) != 2 || eps[1].msgAt[0] != want[0] || eps[1].msgAt[1] != want[1] {
		t.Fatalf("arrivals = %v, want %v", eps[1].msgAt, want)
	}
	st := fab.Congestion()
	if !st.Enabled {
		t.Fatal("congestion stats should be enabled")
	}
	if st.LinkMessages != 2 || st.LinkStall != 3 || st.LinkMaxQueue != 1 {
		t.Fatalf("link stats = %+v", st)
	}
	if log.Count(telf.NetStall) != 1 {
		t.Fatalf("net_stall events = %d, want 1", log.Count(telf.NetStall))
	}

	// Reset clears occupancy and counters.
	fab.Reset()
	if st := fab.Congestion(); st.LinkMessages != 0 || st.LinkStall != 0 || st.LinkMaxQueue != 0 {
		t.Fatalf("post-reset stats = %+v", st)
	}
}

func TestContentionDisabledIsTransparent(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MeshW, cfg.MeshH = 2, 2 // LinkSerialization stays 0
	fab, eng, eps, log := fabricFor(t, cfg)

	fab.SendMessage(0, 1, 1, 100)
	fab.SendMessage(0, 1, 2, 100)
	eng.Run(0)

	want := 100 + cfg.NeighborLatency
	if len(eps[1].msgAt) != 2 || eps[1].msgAt[0] != want || eps[1].msgAt[1] != want {
		t.Fatalf("arrivals = %v, want both %d", eps[1].msgAt, want)
	}
	if st := fab.Congestion(); st.Enabled || st.LinkMessages != 0 {
		t.Fatalf("disabled model recorded stats: %+v", st)
	}
	if log.Count(telf.NetStall) != 0 {
		t.Fatal("disabled model logged net_stall events")
	}
}

func TestNetStallAttributedToSourceController(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.LinkSerialization = 5
	fab, eng, _, log := fabricFor(t, cfg)
	fab.SendMessage(0, 1, 1, 10)
	fab.SendMessage(0, 1, 2, 10)
	fab.SendMessage(0, 1, 3, 10)
	eng.Run(0)
	// Second message waits 5, third waits 10.
	if got := log.Stalled(telf.StallNet); got != 15 {
		t.Fatalf("attributed stall = %d, want 15", got)
	}
	for _, e := range log.Events {
		if e.Kind == telf.Stall && e.Node != 0 {
			t.Fatalf("stall charged to node %d, want the sender 0: %v", e.Node, e)
		}
	}
}

func TestTorusWraparound(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MeshW, cfg.MeshH = 4, 4
	cfg.Topology = TopoTorus
	topo := mustTopo(t, cfg)

	if !topo.Adjacent(0, 3) {
		t.Fatal("row ends must be adjacent on the torus")
	}
	if !topo.Adjacent(0, 12) {
		t.Fatal("column ends must be adjacent on the torus")
	}
	if d := topo.MeshDistance(0, 15); d != 2 {
		t.Fatalf("torus distance(0,15) = %d, want 2", d)
	}
	if s := topo.MeshStep(0, 3); s != 3 {
		t.Fatalf("torus step(0,3) = %d, want wraparound 3", s)
	}
	// The shortened metric shrinks the calibrated window.
	eng := sim.NewEngine()
	fab := NewFabric(eng, topo, telf.NewLog())
	if w := fab.NearbyWindow(0, 3); w != cfg.NeighborLatency {
		t.Fatalf("torus nearby window = %d, want %d", w, cfg.NeighborLatency)
	}
}

func TestTreeOnlyTopology(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MeshW, cfg.MeshH, cfg.RouterFanout = 2, 2, 4
	cfg.Topology = TopoTree
	fab, eng, eps, _ := fabricFor(t, cfg)

	if fab.Topo.Adjacent(0, 1) {
		t.Fatal("tree-only topology must have no mesh links")
	}
	// Two leaves under one router: 2 hops * 4 + 1 router * 1 = 9.
	if w := fab.NearbyWindow(0, 1); w != 9 {
		t.Fatalf("tree nearby window = %d, want 9", w)
	}
	fab.SendSyncSignal(0, 1, 100)
	fab.SendMessage(0, 1, 7, 100)
	eng.Run(0)
	if len(eps[1].signals) != 1 || eps[1].signals[0] != 109 {
		t.Fatalf("sync signal at %v, want 109", eps[1].signals)
	}
	if len(eps[1].msgAt) != 1 || eps[1].msgAt[0] != 109 {
		t.Fatalf("message at %v, want 109", eps[1].msgAt)
	}
}

// TestRegionSyncAgreesUnderQueueing: a region sync whose booking climbs and
// broadcast share router ports with tree messages sent at the same moment
// still gives every leaf the same common time-point, once — protocol
// correctness survives contention.
func TestRegionSyncAgreesUnderQueueing(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.MeshW, cfg.MeshH = 3, 3
	cfg.LinkSerialization = 3
	fab, eng, eps, log := fabricFor(t, cfg)
	root := fab.Topo.Root
	for i := range eps {
		fab.BookRegion(i, root, 100+fab.RegionWindow(i, root), 100)
	}
	for i, m := range [][2]int{{0, 8}, {8, 0}, {2, 6}, {6, 2}, {0, 8}} {
		fab.SendMessage(m[0], m[1], uint32(i), 100)
	}
	eng.Run(0)
	for i, ep := range eps {
		if len(ep.tms) != 1 || ep.tms[0] != eps[0].tms[0] {
			t.Fatalf("leaf %d resumed at %v, leaf 0 at %v", i, ep.tms, eps[0].tms)
		}
	}
	// A router's own booking or broadcast hop (A = -1) waited for a port.
	routed := false
	for _, e := range log.Events {
		routed = routed || e.Kind == telf.NetStall && e.A < 0
	}
	if !routed {
		t.Fatal("no hop of the sync queued at a router port")
	}
}

// TestLinkBacklogDeliversEveryMessage: six messages sent at once on one
// link all arrive, and the deepest backlog is the five queued behind the first.
func TestLinkBacklogDeliversEveryMessage(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.LinkSerialization = 4
	fab, eng, eps, _ := fabricFor(t, cfg)
	for i := 0; i < 6; i++ {
		fab.SendMessage(0, 1, uint32(i), 50)
	}
	eng.Run(0)
	if len(eps[1].msgs) != 6 {
		t.Fatalf("messages must never be dropped: got %d of 6", len(eps[1].msgs))
	}
	// Backlogs of 1,2,3,4,5 precede messages 2..6.
	if st := fab.Congestion(); st.LinkMaxQueue != 5 {
		t.Fatalf("max queue = %d, want 5", st.LinkMaxQueue)
	}
}

// TestCongestionLinkBreakdown pins the per-link attribution, which is the
// TELF log's: summing net_stall B by (Node, C) gives each directed link's
// queueing exactly, idle links get no entry, and the links add up to the
// aggregate counter.
func TestCongestionLinkBreakdown(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.LinkSerialization = 3
	fab, eng, _, log := fabricFor(t, cfg)

	// Three messages on 0->1 (the second stalls 3, the third 6), two on
	// 2->3 (3), one on 1->3 (none), none elsewhere.
	for i, m := range [][2]int{{0, 1}, {0, 1}, {2, 3}, {0, 1}, {2, 3}, {1, 3}} {
		fab.SendMessage(m[0], m[1], uint32(i), 100)
	}
	eng.Run(0)

	type edge struct{ from, to int }
	got := map[edge]sim.Time{}
	for _, e := range log.Events {
		if e.Kind == telf.NetStall {
			got[edge{e.Node, int(e.C)}] += e.B
		}
	}
	want := map[edge]sim.Time{{0, 1}: 9, {2, 3}: 3}
	if !maps.Equal(got, want) {
		t.Fatalf("stall by edge = %v, want %v", got, want)
	}
	var sum sim.Time
	for e, stall := range got {
		if link := fab.links[fab.linkIndex(e.from, e.to)].StallCycles; link != stall {
			t.Fatalf("%v: events say %d, the link %d", e, stall, link)
		}
		sum += stall
	}
	if st := fab.Congestion(); sum != st.LinkStall {
		t.Fatalf("edges sum to %d, aggregate %d", sum, st.LinkStall)
	}
}
