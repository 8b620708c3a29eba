package network

import (
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

func TestRouterPortSharingSerializesBroadcast(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MeshW, cfg.MeshH, cfg.RouterFanout = 2, 2, 4
	cfg.LinkSerialization = 2
	cfg.RouterPorts = 1 // all 4 downlinks share one physical port
	fab, eng, eps, _ := fabricFor(t, cfg)
	root := fab.Topo.Root

	window := fab.RegionWindow(0, root)
	for i := 0; i < 4; i++ {
		fab.BookRegion(i, root, 100+window, 100)
	}
	eng.Run(0)

	// Everyone still agrees on the common time-point (protocol correctness
	// survives contention), but the one-port broadcast serializes.
	for i, ep := range eps {
		if len(ep.tms) != 1 {
			t.Fatalf("leaf %d: %d resumes", i, len(ep.tms))
		}
		if ep.tms[0] != eps[0].tms[0] {
			t.Fatalf("leaf %d disagrees on Tm: %d vs %d", i, ep.tms[0], eps[0].tms[0])
		}
	}
	st := fab.Congestion()
	if st.PortStall == 0 || st.PortMaxQueue == 0 {
		t.Fatalf("one-port broadcast should queue: %+v", st)
	}
	if st.RouterBusiest == 0 || st.RouterBusy < st.RouterBusiest {
		t.Fatalf("router busy accounting: %+v", st)
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

// TestCongestionLinkBreakdown pins the per-link attribution: every active
// link appears once with correct endpoints, messages, and stall; idle
// links are omitted; the breakdown sums back to the aggregate counters.
func TestCongestionLinkBreakdown(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.LinkSerialization = 3
	fab, eng, _, _ := fabricFor(t, cfg)

	// Two messages on 0->1 (second stalls 3), one on 2->3, none elsewhere.
	fab.SendMessage(0, 1, 1, 100)
	fab.SendMessage(0, 1, 2, 100)
	fab.SendMessage(2, 3, 3, 100)
	eng.Run(0)

	st := fab.Congestion()
	if len(st.Links) != 2 {
		t.Fatalf("links = %+v, want exactly the two active links", st.Links)
	}
	var sumMsgs uint64
	var sumStall sim.Time
	byPair := map[[2]int]LinkStat{}
	for _, l := range st.Links {
		byPair[[2]int{l.From, l.To}] = l
		sumMsgs += l.Messages
		sumStall += l.Stall
	}
	l01, ok := byPair[[2]int{0, 1}]
	if !ok || l01.Messages != 2 || l01.Stall != 3 || l01.MaxQueue != 1 {
		t.Fatalf("0->1 link stat = %+v (present %v)", l01, ok)
	}
	l23, ok := byPair[[2]int{2, 3}]
	if !ok || l23.Messages != 1 || l23.Stall != 0 {
		t.Fatalf("2->3 link stat = %+v (present %v)", l23, ok)
	}
	if sumMsgs != st.LinkMessages || sumStall != st.LinkStall {
		t.Fatalf("breakdown sums (%d msgs, %d stall) != aggregate (%d, %d)",
			sumMsgs, sumStall, st.LinkMessages, st.LinkStall)
	}
}

// TestLinkEndpointsInvertsLinkIndex: the reporting inverse must round-trip
// every directed neighbor link the reservation side can index, on both
// mesh (no wrap) and torus (wrap) shapes.
func TestLinkEndpointsInvertsLinkIndex(t *testing.T) {
	for _, kind := range []TopologyKind{TopoMesh, TopoTorus} {
		cfg := DefaultConfig(12)
		cfg.MeshW, cfg.MeshH = 4, 3
		cfg.Topology = kind
		cfg.LinkSerialization = 1
		fab, _, _, _ := fabricFor(t, cfg)
		topo := fab.Topo
		for from := 0; from < topo.N; from++ {
			for to := 0; to < topo.N; to++ {
				if from == to || !topo.Adjacent(from, to) {
					continue
				}
				i := fab.linkIndex(from, to)
				gotFrom, gotTo := fab.linkEndpoints(i)
				if gotFrom != from || gotTo != to {
					t.Fatalf("%v: linkEndpoints(linkIndex(%d,%d)) = (%d,%d)",
						kind, from, to, gotFrom, gotTo)
				}
			}
		}
	}
}
