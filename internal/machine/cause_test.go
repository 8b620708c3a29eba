package machine

import (
	"testing"

	"dhisq/internal/network"
	"dhisq/internal/telf"
	"dhisq/internal/workloads"
)

// dvqeLog runs one shot of the 2-chip distributed VQE with event storage
// on and returns its log.
func dvqeLog(t *testing.T) *telf.Log {
	t.Helper()
	bm, err := workloads.Build("dvqe")
	if err != nil {
		t.Fatal(err)
	}
	c, err := bm.Circuit.Bind(bm.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(c.NumQubits)
	cfg.Seed = 1
	cfg.Chips = 2
	cfg.LogEvents = true
	w, h := network.NearSquareMesh(cfg.TotalQubits(c.NumQubits))
	_, m, err := RunCircuit(c, w, h, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Log
}

// pairKey is one ordered (from, to) node pair of a log.
type pairKey struct{ from, to int }

// TestCausesMatchTheirEvents holds every msg_recv's C to its msg_send's
// time and every nearby sync_done's C to its partner's sync_book, pairing
// the i-th receipt from a peer with the i-th event the peer addressed to
// it (both FIFOs); a region sync_done's C to a time-point no earlier than
// the node's own booking; and every cw_commit's C to a TCU time at or
// before the commit.
func TestCausesMatchTheirEvents(t *testing.T) {
	l := dvqeLog(t)
	sends := map[pairKey][]telf.Event{}
	books := map[pairKey][]telf.Event{}
	for _, e := range l.Events {
		switch e.Kind {
		case telf.MsgSend:
			k := pairKey{e.Node, int(e.A)}
			sends[k] = append(sends[k], e)
		case telf.SyncBook:
			k := pairKey{e.Node, int(e.A)}
			books[k] = append(books[k], e)
		}
	}
	recvs, syncs := map[pairKey]int{}, map[pairKey]int{}
	var nRecv, nSync, nRegion, nCommit int
	for _, e := range l.Events {
		switch e.Kind {
		case telf.MsgRecv:
			k := pairKey{int(e.A), e.Node}
			i := recvs[k]
			recvs[k]++
			if i >= len(sends[k]) || sends[k][i].Time != e.C || sends[k][i].B != e.B {
				t.Fatalf("%v: no msg_send %d from %d to %d at c", e, i, k.from, k.to)
			}
			nRecv++
		case telf.SyncDone:
			k := pairKey{int(e.A), e.Node}
			i := syncs[k]
			syncs[k]++
			if _, ok := books[k]; !ok {
				// A router: C is the common time-point, the latest of its
				// members' bookings, this node's own included.
				own := books[pairKey{e.Node, int(e.A)}]
				if i >= len(own) || e.C < own[i].B {
					t.Fatalf("%v: before this node's booking %d toward the router", e, i)
				}
				nRegion++
				continue
			}
			if i >= len(books[k]) || books[k][i].B != e.C {
				t.Fatalf("%v: sync_book %d of %d toward %d is not at c", e, i, k.from, k.to)
			}
			nSync++
		case telf.CWCommit:
			if e.C > e.Time {
				t.Fatalf("%v: scheduled after it committed", e)
			}
			nCommit++
		}
	}
	if nRecv == 0 || nSync == 0 || nRegion == 0 || nCommit == 0 {
		t.Fatalf("the dvqe log has %d receipts, %d nearby and %d region syncs, %d commits", nRecv, nSync, nRegion, nCommit)
	}
}

// TestStallWalksBackToItsCause walks one recv stall back to the msg_send
// it waited for and one sync stall back to its partner's sync_book, using
// nothing but the events' fields.
func TestStallWalksBackToItsCause(t *testing.T) {
	l := dvqeLog(t)
	find := func(ok func(telf.Event) bool) (telf.Event, bool) {
		for _, e := range l.Events {
			if ok(e) {
				return e, true
			}
		}
		return telf.Event{}, false
	}
	walk := func(reason int64, answer telf.Kind, origin func(stall, answer, e telf.Event) bool) {
		stall, ok := find(func(e telf.Event) bool { return e.Kind == telf.Stall && e.A == reason })
		if !ok {
			t.Fatalf("no stall of reason %d", reason)
		}
		// The event the stall resolved into: same node, same cycle, same peer.
		ans, ok := find(func(e telf.Event) bool {
			return e.Kind == answer && e.Node == stall.Node && e.Time == stall.Time && e.A == stall.C
		})
		if !ok {
			t.Fatalf("%v: no %v answers it", stall, answer)
		}
		if _, ok := find(func(e telf.Event) bool { return origin(stall, ans, e) }); !ok {
			t.Fatalf("%v → %v: no event on node %d caused it", stall, ans, stall.C)
		}
	}
	walk(telf.StallRecv, telf.MsgRecv, func(stall, recv, e telf.Event) bool {
		return e.Kind == telf.MsgSend && e.Node == int(stall.C) && e.A == int64(stall.Node) &&
			e.Time == recv.C && e.B == recv.B
	})
	walk(telf.StallSync, telf.SyncDone, func(stall, done, e telf.Event) bool {
		return e.Kind == telf.SyncBook && e.Node == int(stall.C) && e.A == int64(stall.Node) &&
			e.B == done.C
	})
}

// TestNetStallsNameTheirEdges sums net_stall B by (Node, C) on contended
// runs: every key is a real directed edge, and the edges add up to the
// fabric's total queueing, router-originated hops included. At 8 cycles a
// message the routers' own booking and broadcast hops queue on every
// topology, so that last clause is exercised, not vacuous.
func TestNetStallsNameTheirEdges(t *testing.T) {
	hub := stallHub(16)
	for _, kind := range []network.TopologyKind{network.TopoMesh, network.TopoTorus, network.TopoTree} {
		cfg := DefaultConfig(hub.NumQubits)
		cfg.Backend = BackendSeeded
		cfg.Seed = 1
		cfg.LogEvents = true
		cfg.Net.LinkSerialization = 8
		cfg.Net.Topology = kind
		w, h := network.NearSquareMesh(hub.NumQubits)
		res, m, err := RunCircuit(hub, w, h, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		edges := map[pairKey]int64{}
		var total, routed int64
		for _, e := range m.Log.Events {
			if e.Kind != telf.NetStall {
				continue
			}
			a, b := e.Node, int(e.C)
			if !m.Topo.Adjacent(a, b) && m.Topo.Parent(a) != b && m.Topo.Parent(b) != a {
				t.Fatalf("%v: %d -> %d is no edge of the %v fabric", e, a, b, kind)
			}
			edges[pairKey{a, b}] += e.B
			total += e.B
			if e.A < 0 {
				routed += e.B
			}
		}
		if len(edges) < 2 || total != int64(res.Net.TotalStall()) {
			t.Fatalf("%v: %d edges sum to %d, fabric total %d", kind, len(edges), total, res.Net.TotalStall())
		}
		if routed == 0 {
			t.Fatalf("%v: no router-originated hop queued (%d cycles in all)", kind, total)
		}
	}
}
