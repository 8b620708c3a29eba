package network

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dhisq/internal/registry"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

func collFabric(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	topo, err := NewTopology(cfg)
	if err != nil {
		t.Fatalf("NewTopology(%+v): %v", cfg, err)
	}
	return NewFabric(sim.NewEngine(), topo, telf.NewLog())
}

func randInputs(rng *rand.Rand, n, w int) [][]uint32 {
	in := make([][]uint32, n)
	for r := range in {
		in[r] = make([]uint32, w)
		for i := range in[r] {
			in[r][i] = rng.Uint32()
		}
	}
	return in
}

// checkCollective runs one collective and asserts every owned word equals
// the host-side oracle. It returns the completion time.
func checkCollective(t *testing.T, f *Fabric, spec CollSpec, inputs [][]uint32) sim.Time {
	t.Helper()
	res, err := RunCollective(f, spec, inputs, f.eng.Now())
	if err != nil {
		t.Fatalf("%s/%s on %s: %v", spec.Kind, spec.Schedule, f.Topo.Cfg.Topology, err)
	}
	want := CollExpect(spec, inputs)
	for r := range res.Values {
		for _, w := range CollOwnedWords(spec, r) {
			if res.Values[r][w] != want[r][w] {
				t.Fatalf("%s/%s on %s: rank %d word %d = %#x, want %#x",
					spec.Kind, spec.Schedule, f.Topo.Cfg.Topology, r, w, res.Values[r][w], want[r][w])
			}
		}
	}
	if res.Done < res.Start {
		t.Fatalf("%s/%s: Done %d before Start %d", spec.Kind, spec.Schedule, res.Done, res.Start)
	}
	return res.Makespan()
}

// TestCollectiveOracleProperty is the randomized schedule×topology×kind
// sweep of the satellite checklist: every schedule on every topology must
// reduce to the naive oracle's values at any participant count, and its
// completion time must be a pure function of the spec (run twice →
// identical makespan).
func TestCollectiveOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := collKinds
	schedules := []CollSchedule{CollNaive, CollRing, CollHalving, CollTree, CollAuto}
	topos := []TopologyKind{TopoMesh, TopoTorus, TopoTree}
	for iter := 0; iter < 60; iter++ {
		cfg := Config{
			MeshW:           2 + rng.Intn(5),
			MeshH:           1 + rng.Intn(5),
			RouterFanout:    2 + rng.Intn(3),
			NeighborLatency: 1 + rng.Int63n(3),
			TreeHopLatency:  1 + rng.Int63n(4),
			RouterProc:      rng.Int63n(2),
			Topology:        topos[rng.Intn(len(topos))],
		}
		if rng.Intn(2) == 0 {
			cfg.LinkSerialization = 1 + rng.Int63n(8)
			cfg.RouterPorts = 1 + rng.Intn(3)
		}
		topo, err := NewTopology(cfg)
		if err != nil {
			t.Fatalf("NewTopology: %v", err)
		}
		// Random participant subset (any worker count ≥ 1), random order.
		parts := rng.Perm(topo.N)[:1+rng.Intn(topo.N)]
		spec := CollSpec{
			Kind:     kinds[rng.Intn(len(kinds))],
			Schedule: schedules[rng.Intn(len(schedules))],
			Parts:    parts,
			Root:     rng.Intn(len(parts)),
			Width:    len(parts) * (1 + rng.Intn(3)),
			Op:       ReduceSum,
		}
		if rng.Intn(2) == 0 {
			spec.Op = ReduceXor
		}
		inputs := randInputs(rng, len(parts), spec.Width)

		f1 := NewFabric(sim.NewEngine(), topo, telf.NewLog())
		m1 := checkCollective(t, f1, spec, inputs)
		f2 := NewFabric(sim.NewEngine(), topo, telf.NewLog())
		m2 := checkCollective(t, f2, spec, inputs)
		if m1 != m2 {
			t.Fatalf("iter %d: %s/%s on %s: makespan %d then %d — not deterministic",
				iter, spec.Kind, spec.Schedule, cfg.Topology, m1, m2)
		}
	}
}

// TestCollectiveExhaustiveSmall walks every (kind, schedule, topology)
// cell at several fixed participant counts, including 1, 2, non-powers of
// two, and the full mesh.
func TestCollectiveExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tk := range []TopologyKind{TopoMesh, TopoTorus, TopoTree} {
		cfg := Config{
			MeshW: 4, MeshH: 4, RouterFanout: 2,
			NeighborLatency: 2, TreeHopLatency: 4, RouterProc: 1,
			Topology: tk, LinkSerialization: 4, RouterPorts: 2,
		}
		topo, err := NewTopology(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 5, 8, 16} {
			parts := topo.SnakeOrder()[:n]
			for _, kind := range collKinds {
				for _, sched := range []CollSchedule{CollNaive, CollRing, CollHalving, CollTree} {
					spec := CollSpec{
						Kind: kind, Schedule: sched, Parts: parts,
						Root: rng.Intn(n), Width: 2 * n, Op: ReduceSum,
					}
					f := NewFabric(sim.NewEngine(), topo, telf.NewLog())
					checkCollective(t, f, spec, randInputs(rng, n, spec.Width))
				}
			}
		}
	}
}

// TestCollectiveCounters pins the CongestionStats plumbing: ops count with
// and without contention, stall cycles only with it, and Reset clears both.
func TestCollectiveCounters(t *testing.T) {
	cfg := Config{
		MeshW: 4, MeshH: 4, RouterFanout: 4,
		NeighborLatency: 2, TreeHopLatency: 4, RouterProc: 1,
		LinkSerialization: 8,
	}
	f := collFabric(t, cfg)
	parts := f.Topo.SnakeOrder()
	spec := CollSpec{Kind: CollReduce, Schedule: CollNaive, Parts: parts, Root: 0, Width: 4, Op: ReduceSum}
	rng := rand.New(rand.NewSource(3))
	if _, err := RunCollective(f, spec, randInputs(rng, len(parts), spec.Width), 0); err != nil {
		t.Fatal(err)
	}
	st := f.Congestion()
	if st.CollectiveOps != 1 {
		t.Fatalf("CollectiveOps = %d, want 1", st.CollectiveOps)
	}
	if st.CollectiveStall <= 0 {
		t.Fatalf("CollectiveStall = %d, want > 0 (16 senders fan into one root at ser=8)", st.CollectiveStall)
	}
	if st.TotalStall() < st.CollectiveStall {
		t.Fatalf("TotalStall %d < CollectiveStall %d", st.TotalStall(), st.CollectiveStall)
	}
	f.Reset()
	st = f.Congestion()
	if st.CollectiveOps != 0 || st.CollectiveStall != 0 {
		t.Fatalf("after Reset: ops=%d stall=%d, want 0/0", st.CollectiveOps, st.CollectiveStall)
	}

	// Without contention the ops still count; stalls cannot.
	cfg.LinkSerialization = 0
	f = collFabric(t, cfg)
	if _, err := RunCollective(f, spec, randInputs(rng, len(parts), spec.Width), 0); err != nil {
		t.Fatal(err)
	}
	st = f.Congestion()
	if st.Enabled {
		t.Fatal("contention unexpectedly enabled")
	}
	if st.CollectiveOps != 1 || st.CollectiveStall != 0 {
		t.Fatalf("uncontended: ops=%d stall=%d, want 1/0", st.CollectiveOps, st.CollectiveStall)
	}
}

// TestCollectiveEndpointRestore: a collective must leave the fabric's
// endpoints exactly as it found them.
func TestCollectiveEndpointRestore(t *testing.T) {
	f := collFabric(t, Config{MeshW: 3, MeshH: 3, RouterFanout: 4, NeighborLatency: 2, TreeHopLatency: 4, RouterProc: 1})
	eps := make([]*scriptedEndpoint, f.Topo.N)
	for i := range eps {
		eps[i] = &scriptedEndpoint{}
		f.Attach(i, eps[i])
	}
	spec := CollSpec{Kind: CollAllReduce, Schedule: CollAuto, Parts: f.Topo.SnakeOrder(), Root: 2, Width: 1, Op: ReduceMax}
	rng := rand.New(rand.NewSource(5))
	if _, err := RunCollective(f, spec, randInputs(rng, f.Topo.N, 1), 0); err != nil {
		t.Fatal(err)
	}
	for i := range eps {
		if f.endpoints[i] != Endpoint(eps[i]) {
			t.Fatalf("endpoint %d not restored", i)
		}
	}
}

// TestCollectiveValidation covers the spec error paths.
func TestCollectiveValidation(t *testing.T) {
	f := collFabric(t, Config{MeshW: 2, MeshH: 2, RouterFanout: 4, NeighborLatency: 2, TreeHopLatency: 4, RouterProc: 1})
	in := [][]uint32{{1}, {2}}
	cases := []CollSpec{
		{Kind: CollReduce, Parts: nil, Width: 1, Op: ReduceSum},
		{Kind: CollReduce, Parts: []int{0, 0}, Width: 1, Op: ReduceSum},
		{Kind: CollReduce, Parts: []int{0, 9}, Width: 1, Op: ReduceSum},
		{Kind: CollReduce, Parts: []int{0, 1}, Root: 5, Width: 1, Op: ReduceSum},
		{Kind: CollReduce, Parts: []int{0, 1}, Width: 0, Op: ReduceSum},
		{Kind: CollReduce, Parts: []int{0, 1}, Width: 1},
		{Kind: CollKind(len(collKinds)), Parts: []int{0, 1}, Width: 1, Op: ReduceSum},
		{Kind: CollReduce, Schedule: CollSchedule(len(schedules)), Parts: []int{0, 1}, Width: 1, Op: ReduceSum},
		{Kind: CollReduce, Schedule: -1, Parts: []int{0, 1}, Width: 1, Op: ReduceSum},
	}
	for i, spec := range cases {
		if _, err := RunCollective(f, spec, in, 0); err == nil {
			t.Fatalf("case %d (%+v): expected error", i, spec)
		}
	}
	if _, err := RunCollective(f, CollSpec{Kind: CollReduce, Schedule: CollNaive, Parts: []int{0, 1}, Width: 1, Op: ReduceSum}, [][]uint32{{1}}, 0); err == nil {
		t.Fatal("expected input-arity error")
	}
}

// TestParseCollSchedule pins the name round-trip the CLIs depend on.
func TestParseCollSchedule(t *testing.T) {
	for _, name := range CollScheduleNames() {
		s, err := ParseCollSchedule(name)
		if err != nil {
			t.Fatalf("ParseCollSchedule(%q): %v", name, err)
		}
		if s.String() != name {
			t.Fatalf("round-trip %q -> %v", name, s)
		}
	}
	if _, err := ParseCollSchedule("bogus"); err == nil {
		t.Fatal("expected error for unknown schedule")
	}
}

// TestCollKindNames pins the kind names BENCH_collective.json rows carry,
// read off the kind registry the way every other registry's names are.
func TestCollKindNames(t *testing.T) {
	want := []string{"broadcast", "reduce", "allreduce"}
	if got := registry.Names(collKinds, CollKind.String); !reflect.DeepEqual(got, want) {
		t.Fatalf("collective kinds %v, want %v", got, want)
	}
	if got := CollKind(len(collKinds)).String(); got != "collkind(3)" {
		t.Fatalf("a kind off the registry prints %q", got)
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

// TestResolveForAllReduceRing pins the schedule-resolution fix for the
// recursive-doubling volume blowup: an auto all-reduce at a
// non-power-of-two participant count resolves to the ring reduce-scatter
// + all-gather on mesh, while power-of-two counts, other collective
// kinds, and concrete schedule names are untouched.
func TestResolveForAllReduceRing(t *testing.T) {
	cases := []struct {
		topo  TopologyKind
		kind  CollKind
		parts int
		want  CollSchedule
	}{
		{TopoMesh, CollAllReduce, 5, CollRing},    // the fixed case
		{TopoMesh, CollAllReduce, 9, CollRing},    // non-po2 again
		{TopoMesh, CollAllReduce, 8, CollHalving}, // po2 keeps halving
		{TopoMesh, CollReduce, 5, CollHalving},    // other kinds untouched
		{TopoTorus, CollReduce, 4, CollRing},      // auto per topology: ring on torus,
		{TopoTree, CollBroadcast, 4, CollTree},    // subtree combining on tree
		{TopoTorus, CollAllReduce, 5, CollRing},   // torus was already ring
		{TopoTree, CollAllReduce, 5, CollTree},    // tree untouched
	}
	for _, tc := range cases {
		if got := CollAuto.Resolve(tc.topo, tc.kind, tc.parts); got != tc.want {
			t.Fatalf("Resolve(%s, %s, %d) = %s, want %s", tc.topo, tc.kind, tc.parts, got, tc.want)
		}
	}
	// Concrete schedules pass through whatever the shape.
	if got := CollHalving.Resolve(TopoMesh, CollAllReduce, 5); got != CollHalving {
		t.Fatalf("concrete schedule rewritten to %s", got)
	}
}

// TestRingAllReduceVolume quantifies what the ring schedule buys at
// non-power-of-two counts: strictly fewer fabric messages than recursive
// halving/doubling, whose deficit folds roughly double the volume there.
func TestRingAllReduceVolume(t *testing.T) {
	cfg := Config{MeshW: 3, MeshH: 3, RouterFanout: 2, NeighborLatency: 1, Topology: TopoMesh}
	topo, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{5, 6, 7, 9} {
		parts := topo.SnakeOrder()[:n]
		spec := CollSpec{Kind: CollAllReduce, Parts: parts, Root: 0, Width: 2 * n, Op: ReduceSum}
		inputs := randInputs(rng, n, spec.Width)
		run := func(s CollSchedule) *CollResult {
			spec.Schedule = s
			f := NewFabric(sim.NewEngine(), topo, telf.NewLog())
			res, err := RunCollective(f, spec, inputs, 0)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, s, err)
			}
			want := CollExpect(spec, inputs)
			for r := range res.Values {
				for _, w := range CollOwnedWords(spec, r) {
					if res.Values[r][w] != want[r][w] {
						t.Fatalf("n=%d %s: rank %d word %d diverged", n, s, r, w)
					}
				}
			}
			return res
		}
		ring, halving := run(CollRing), run(CollHalving)
		if ring.Messages >= halving.Messages {
			t.Fatalf("n=%d: ring all-reduce sent %d messages, halving %d — ring should be strictly leaner at non-po2",
				n, ring.Messages, halving.Messages)
		}
	}
}

// TestSnakeOrderAdjacency: SnakeOrder visits every controller once, and
// consecutive entries are mesh neighbors — the property the ring schedule's
// "every hop is a neighbor link" rests on — on mesh and torus, at odd and
// even widths.
func TestSnakeOrderAdjacency(t *testing.T) {
	for _, kind := range []TopologyKind{TopoMesh, TopoTorus} {
		for _, shape := range [][2]int{{5, 5}, {4, 6}, {5, 4}, {2, 3}, {1, 4}, {6, 1}} {
			cfg := DefaultConfig(shape[0] * shape[1])
			cfg.MeshW, cfg.MeshH, cfg.Topology = shape[0], shape[1], kind
			topo, err := NewTopology(cfg)
			if err != nil {
				t.Fatal(err)
			}
			order := topo.SnakeOrder()
			if len(order) != topo.N {
				t.Fatalf("%v %dx%d: %d entries for %d controllers", kind, shape[0], shape[1], len(order), topo.N)
			}
			seen := make([]bool, topo.N)
			for i, c := range order {
				if c < 0 || c >= topo.N || seen[c] {
					t.Fatalf("%v %dx%d: entry %d is controller %d, out of range or repeated", kind, shape[0], shape[1], i, c)
				}
				seen[c] = true
				if i == 0 {
					continue
				}
				if d := topo.MeshDistance(order[i-1], c); d != 1 {
					t.Fatalf("%v %dx%d: entries %d,%d (controllers %d,%d) at mesh distance %d", kind, shape[0], shape[1], i-1, i, order[i-1], c, d)
				}
			}
		}
	}
}
