package network

import (
	"math/rand"
	"sync"
	"testing"

	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

func mustTopo(t *testing.T, cfg Config) *Topology {
	t.Helper()
	topo, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyTreeStructure(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MeshW, cfg.MeshH, cfg.RouterFanout = 4, 4, 4
	topo := mustTopo(t, cfg)
	if topo.N != 16 {
		t.Fatalf("N = %d", topo.N)
	}
	// 16 leaves, fanout 4: 4 level-1 routers + 1 root = 5.
	if topo.NumRouters != 5 {
		t.Fatalf("routers = %d, want 5", topo.NumRouters)
	}
	if topo.Root != 20 {
		t.Fatalf("root = %d, want 20", topo.Root)
	}
	// Every controller has the root as an ancestor.
	for c := 0; c < 16; c++ {
		if !topo.IsAncestor(topo.Root, c) {
			t.Fatalf("root not ancestor of %d", c)
		}
	}
	// The root's children are the level-1 routers.
	if kids := topo.Children(topo.Root); len(kids) != 4 {
		t.Fatalf("root children = %v", kids)
	}
	if topo.Parent(topo.Root) != -1 {
		t.Fatal("root should have no parent")
	}
}

func TestTopologySingleController(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MeshW, cfg.MeshH = 1, 1
	topo := mustTopo(t, cfg)
	if topo.NumRouters != 1 || topo.Root != 1 {
		t.Fatalf("1-leaf tree: routers=%d root=%d", topo.NumRouters, topo.Root)
	}
}

func TestMeshGeometry(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.MeshW, cfg.MeshH = 4, 3
	topo := mustTopo(t, cfg)
	if !topo.Adjacent(0, 1) || !topo.Adjacent(0, 4) {
		t.Fatal("expected adjacency")
	}
	if topo.Adjacent(3, 4) {
		t.Fatal("row wrap must not be adjacent")
	}
	if d := topo.MeshDistance(0, 11); d != 5 {
		t.Fatalf("manhattan(0,11) = %d, want 5", d)
	}
}

func TestHopsAndWindows(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MeshW, cfg.MeshH, cfg.RouterFanout = 4, 4, 4
	topo := mustTopo(t, cfg)
	eng := sim.NewEngine()
	fab := NewFabric(eng, topo, telf.NewLog())

	if h := topo.HopsUp(0, topo.Root); h != 2 {
		t.Fatalf("hops to root = %d, want 2", h)
	}
	if d := topo.MaxHopsDown(topo.Root); d != 2 {
		t.Fatalf("max down = %d, want 2", d)
	}
	// Window = (up + maxdown) * (hop + proc) = 4 * 5 = 20.
	if w := fab.RegionWindow(0, topo.Root); w != 20 {
		t.Fatalf("region window = %d, want 20", w)
	}
	if w := fab.NearbyWindow(0, 1); w != cfg.NeighborLatency {
		t.Fatalf("nearby window = %d", w)
	}
	// Non-adjacent pairs scale with distance.
	if w := fab.NearbyWindow(0, 15); w != 6*cfg.NeighborLatency {
		t.Fatalf("scaled window = %d", w)
	}
}

// TestMaxHopsDownTable pins the tabulated MaxHopsDown to its recursive
// definition on every topology kind, mesh shapes whose last router group is
// ragged, and fanouts that change the tree's height.
func TestMaxHopsDownTable(t *testing.T) {
	var walk func(topo *Topology, r int) int
	walk = func(topo *Topology, r int) int {
		if !topo.IsRouter(r) {
			return 0
		}
		m := 0
		for _, c := range topo.Children(r) {
			if d := 1 + walk(topo, c); d > m {
				m = d
			}
		}
		return m
	}
	for _, kind := range []TopologyKind{TopoMesh, TopoTorus, TopoTree} {
		for _, shape := range [][2]int{{1, 1}, {2, 1}, {3, 3}, {4, 4}, {5, 4}, {12, 11}, {20, 20}} {
			for _, fanout := range []int{2, 3, 4, 7} {
				cfg := DefaultConfig(shape[0] * shape[1])
				cfg.Topology, cfg.MeshW, cfg.MeshH, cfg.RouterFanout = kind, shape[0], shape[1], fanout
				topo := mustTopo(t, cfg)
				for node := 0; node < topo.N+topo.NumRouters; node++ {
					if got, want := topo.MaxHopsDown(node), walk(topo, node); got != want {
						t.Fatalf("%v %dx%d fanout %d: MaxHopsDown(%d) = %d, recursive walk %d",
							kind, shape[0], shape[1], fanout, node, got, want)
					}
				}
			}
		}
	}
}

func TestTreePathHops(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MeshW, cfg.MeshH, cfg.RouterFanout = 4, 4, 4
	topo := mustTopo(t, cfg)
	// Same level-1 router: up+down = 2.
	if h := topo.TreePathHops(0, 1); h != 2 {
		t.Fatalf("same-router hops = %d, want 2", h)
	}
	// Different level-1 routers: through the root = 4.
	if h := topo.TreePathHops(0, 15); h != 4 {
		t.Fatalf("cross-tree hops = %d, want 4", h)
	}
}

// TestTreePathNoAlloc pins the path memoization: repeated TreePath calls
// must not allocate (they return shared read-only tables).
func TestTreePathNoAlloc(t *testing.T) {
	topo := mustTopo(t, Config{MeshW: 4, MeshH: 4, RouterFanout: 2, NeighborLatency: 2, TreeHopLatency: 4, RouterProc: 1})
	pairs := [][2]int{{0, 15}, {3, 12}, {5, 5}, {topo.Root, 7}}
	for _, p := range pairs {
		topo.TreePath(p[0], p[1]) // warm the memo
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range pairs {
			_ = topo.TreePath(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Fatalf("TreePath allocated %.1f per run, want 0", allocs)
	}
}

// TestTreePathConcurrent drives the memoized TreePath from many
// goroutines — the -race leg for the shared path cache.
func TestTreePathConcurrent(t *testing.T) {
	topo := mustTopo(t, Config{MeshW: 6, MeshH: 6, RouterFanout: 2, NeighborLatency: 2, TreeHopLatency: 4, RouterProc: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				a, b := rng.Intn(topo.N), rng.Intn(topo.N)
				p := topo.TreePath(a, b)
				if len(p)-1 != topo.TreePathHops(a, b) {
					t.Errorf("path length %d vs hops %d", len(p)-1, topo.TreePathHops(a, b))
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// scriptedEndpoint records deliveries for fabric tests.
type scriptedEndpoint struct {
	msgs    []uint32
	msgAt   []sim.Time
	signals []sim.Time
	resumes []sim.Time
	tms     []sim.Time
}

func (s *scriptedEndpoint) DeliverMessage(src int, val uint32, _, at sim.Time) {
	s.msgs = append(s.msgs, val)
	s.msgAt = append(s.msgAt, at)
}
func (s *scriptedEndpoint) DeliverSyncSignal(src int, _, at sim.Time) {
	s.signals = append(s.signals, at)
}
func (s *scriptedEndpoint) DeliverRegionResume(router int, tm, at sim.Time) {
	s.tms = append(s.tms, tm)
	s.resumes = append(s.resumes, at)
}

func TestMessageLatencies(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MeshW, cfg.MeshH, cfg.RouterFanout = 4, 4, 4
	topo := mustTopo(t, cfg)
	eng := sim.NewEngine()
	fab := NewFabric(eng, topo, telf.NewLog())
	eps := make([]*scriptedEndpoint, 16)
	for i := range eps {
		eps[i] = &scriptedEndpoint{}
		fab.Attach(i, eps[i])
	}
	fab.SendMessage(0, 1, 42, 100) // neighbor: mesh link
	fab.SendMessage(0, 15, 43, 100)
	eng.Run(0)
	if len(eps[1].msgs) != 1 || eps[1].msgAt[0] != 100+cfg.NeighborLatency {
		t.Fatalf("neighbor delivery: %+v", eps[1])
	}
	// Cross-tree: 4 hops * 4 + 3 routers * 1 = 19.
	if len(eps[15].msgs) != 1 || eps[15].msgAt[0] != 119 {
		t.Fatalf("tree delivery at %v, want 119", eps[15].msgAt)
	}
}

func TestRegionSyncRouterProtocol(t *testing.T) {
	// Figure 8 end-to-end: all 16 leaves book toward the root with staggered
	// times; everyone must receive the same Tm = max booked time, and the
	// notification must arrive at or before Tm (the window rule).
	cfg := DefaultConfig(16)
	cfg.MeshW, cfg.MeshH, cfg.RouterFanout = 4, 4, 4
	topo := mustTopo(t, cfg)
	eng := sim.NewEngine()
	fab := NewFabric(eng, topo, telf.NewLog())
	eps := make([]*scriptedEndpoint, 16)
	for i := range eps {
		eps[i] = &scriptedEndpoint{}
		fab.Attach(i, eps[i])
	}
	window := fab.RegionWindow(0, topo.Root)
	for i := 0; i < 16; i++ {
		book := sim.Time(100 + 10*i)
		fab.BookRegion(i, topo.Root, book+window, book)
	}
	eng.Run(0)
	wantTm := sim.Time(100+10*15) + window
	for i, ep := range eps {
		if len(ep.tms) != 1 {
			t.Fatalf("leaf %d: %d resumes", i, len(ep.tms))
		}
		if ep.tms[0] != wantTm {
			t.Fatalf("leaf %d: Tm = %d, want %d", i, ep.tms[0], wantTm)
		}
		if ep.resumes[0] > wantTm {
			t.Fatalf("leaf %d: notification at %d after Tm %d", i, ep.resumes[0], wantTm)
		}
	}
}

func TestRegionSyncRepeatedRoundsPairFIFO(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MeshW, cfg.MeshH, cfg.RouterFanout = 2, 2, 4
	topo := mustTopo(t, cfg)
	eng := sim.NewEngine()
	fab := NewFabric(eng, topo, telf.NewLog())
	eps := make([]*scriptedEndpoint, 4)
	for i := range eps {
		eps[i] = &scriptedEndpoint{}
		fab.Attach(i, eps[i])
	}
	// Leaf 0 books round 1 and round 2 before the slow leaves book round 1.
	fab.BookRegion(0, topo.Root, 50, 10)
	fab.BookRegion(0, topo.Root, 500, 60)
	for i := 1; i < 4; i++ {
		fab.BookRegion(i, topo.Root, 100+sim.Time(i), 90)
		fab.BookRegion(i, topo.Root, 600+sim.Time(i), 300)
	}
	eng.Run(0)
	for i, ep := range eps {
		if len(ep.tms) != 2 {
			t.Fatalf("leaf %d: %d rounds", i, len(ep.tms))
		}
		if ep.tms[0] != 103 {
			t.Fatalf("leaf %d round 1 Tm = %d, want 103", i, ep.tms[0])
		}
		if ep.tms[1] != 603 {
			t.Fatalf("leaf %d round 2 Tm = %d, want 603", i, ep.tms[1])
		}
	}
	if r := fab.Router(topo.Root); r.Rounds != 2 {
		t.Fatalf("root resolved %d rounds, want 2", r.Rounds)
	}
}

func TestBookRegionRejectsNonAncestor(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MeshW, cfg.MeshH, cfg.RouterFanout = 4, 4, 4
	topo := mustTopo(t, cfg)
	eng := sim.NewEngine()
	fab := NewFabric(eng, topo, telf.NewLog())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-ancestor router")
		}
	}()
	// Leaf 0's level-1 router is topo.N; leaf 15's is topo.N+3.
	fab.BookRegion(0, topo.N+3, 100, 50)
}

func TestDefaultConfigShapes(t *testing.T) {
	for _, n := range []int{1, 5, 27, 100, 1153} {
		cfg := DefaultConfig(n)
		if cfg.MeshW*cfg.MeshH < n {
			t.Fatalf("n=%d: mesh %dx%d too small", n, cfg.MeshW, cfg.MeshH)
		}
		topo := mustTopo(t, cfg)
		if topo.N < n {
			t.Fatalf("n=%d: topology holds %d", n, topo.N)
		}
	}
}
