package network

import (
	"reflect"
	"slices"
	"testing"
)

// contendedSnapshots runs three different bursts of traffic on one
// contended 3x3 fabric and returns the congestion snapshot of each: mesh
// links (neighbor messages) and router ports (tree messages, one port per
// router) both queue, and the links overlap between bursts only in part.
func contendedSnapshots(t *testing.T) []CongestionStats {
	t.Helper()
	cfg := DefaultConfig(9)
	cfg.MeshW, cfg.MeshH = 3, 3
	cfg.LinkSerialization = 3
	cfg.RouterPorts = 1
	fab, eng, _, _ := fabricFor(t, cfg)
	bursts := [][][2]int{
		// The centre talks to all four neighbours, in slot order +x -x +y -y
		// — not (From, To) order — and twice to a far corner.
		{{4, 5}, {4, 3}, {4, 7}, {4, 1}, {4, 5}, {4, 1}, {4, 0}, {4, 8}},
		{{0, 1}, {0, 1}, {0, 1}, {4, 3}, {2, 6}, {6, 2}, {8, 7}},
		{{4, 1}, {4, 1}, {1, 4}, {3, 4}, {0, 8}, {8, 0}, {0, 8}},
	}
	var out []CongestionStats
	for _, burst := range bursts {
		fab.Reset()
		eng.Reset()
		for i, m := range burst {
			fab.SendMessage(m[0], m[1], uint32(i), 100)
		}
		eng.Run(0)
		st := fab.Congestion()
		if !st.Enabled || st.LinkStall == 0 || st.PortStall == 0 {
			t.Fatalf("burst %v did not queue on both links and ports: %+v", burst, st)
		}
		out = append(out, st)
	}
	return out
}

// TestCongestionLinksSorted: Congestion emits Links in (From, To) order,
// one entry per link, which is what Merge's identity rests on.
func TestCongestionLinksSorted(t *testing.T) {
	for i, s := range contendedSnapshots(t) {
		if !slices.IsSortedFunc(s.Links, compareLinks) {
			t.Fatalf("snapshot %d: links not in (From, To) order: %+v", i, s.Links)
		}
		for j := 1; j < len(s.Links); j++ {
			if compareLinks(s.Links[j-1], s.Links[j]) == 0 {
				t.Fatalf("snapshot %d: link %d->%d listed twice", i, s.Links[j].From, s.Links[j].To)
			}
		}
	}
}

// TestCongestionMergeLaws: the zero value is Merge's identity, and Merge
// is commutative and associative, over real contended snapshots.
func TestCongestionMergeLaws(t *testing.T) {
	snaps := contendedSnapshots(t)
	var zero CongestionStats
	for i, s := range snaps {
		if got := zero.Merge(s); !reflect.DeepEqual(got, s) {
			t.Fatalf("zero.Merge(s%d) = %+v, want %+v", i, got, s)
		}
		if got := s.Merge(zero); !reflect.DeepEqual(got, s) {
			t.Fatalf("s%d.Merge(zero) = %+v, want %+v", i, got, s)
		}
		for j, o := range snaps {
			if ab, ba := s.Merge(o), o.Merge(s); !reflect.DeepEqual(ab, ba) {
				t.Fatalf("s%d, s%d: Merge does not commute:\n  %+v\nvs %+v", i, j, ab, ba)
			}
		}
	}
	a, b, c := snaps[0], snaps[1], snaps[2]
	if left, right := a.Merge(b).Merge(c), a.Merge(b.Merge(c)); !reflect.DeepEqual(left, right) {
		t.Fatalf("Merge is not associative:\n  %+v\nvs %+v", left, right)
	}
}

// TestCongestionMergeFields: a snapshot merged with itself doubles every
// count, stall and busy total, keeps every maximum, and keeps one entry per
// link — so a summed maximum or an appended, unmerged link list shows.
// Merging the three snapshots gives per-link sums over the links of all.
func TestCongestionMergeFields(t *testing.T) {
	snaps := contendedSnapshots(t)
	s := snaps[0]
	d := s.Merge(s)
	want := CongestionStats{
		Enabled:       true,
		LinkMessages:  2 * s.LinkMessages,
		LinkStall:     2 * s.LinkStall,
		LinkMaxQueue:  s.LinkMaxQueue,
		LinkOverflows: 2 * s.LinkOverflows,
		PortMessages:  2 * s.PortMessages,
		PortStall:     2 * s.PortStall,
		PortMaxQueue:  s.PortMaxQueue,
		PortOverflows: 2 * s.PortOverflows,
		RouterBusiest: s.RouterBusiest,
		PortBusiest:   s.PortBusiest,
		RouterBusy:    2 * s.RouterBusy,
	}
	for _, l := range s.Links {
		l.Messages, l.Stall = 2*l.Messages, 2*l.Stall
		want.Links = append(want.Links, l)
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("s.Merge(s) = %+v, want %+v", d, want)
	}

	all := snaps[0].Merge(snaps[1]).Merge(snaps[2])
	sums := map[[2]int]LinkStat{}
	for _, sn := range snaps {
		for _, l := range sn.Links {
			k := [2]int{l.From, l.To}
			acc := sums[k]
			acc.From, acc.To = l.From, l.To
			acc.Messages += l.Messages
			acc.Stall += l.Stall
			acc.MaxQueue = max(acc.MaxQueue, l.MaxQueue)
			sums[k] = acc
		}
	}
	if len(all.Links) != len(sums) || !slices.IsSortedFunc(all.Links, compareLinks) {
		t.Fatalf("merged links %+v: want %d distinct links in (From, To) order", all.Links, len(sums))
	}
	for _, l := range all.Links {
		if l != sums[[2]int{l.From, l.To}] {
			t.Fatalf("merged link %+v, want %+v", l, sums[[2]int{l.From, l.To}])
		}
	}
	if all.TotalStall() != snaps[0].TotalStall()+snaps[1].TotalStall()+snaps[2].TotalStall() {
		t.Fatalf("merged stall %d is not the sum of the snapshots'", all.TotalStall())
	}
}

// TestCongestionMergeDisabledAddsNoStall: a snapshot taken with the
// contention model off — traffic and a collective run on it — carries its
// collective count and nothing else, so merging it moves no stall and no
// link, and keeps the digest enabled.
func TestCongestionMergeDisabledAddsNoStall(t *testing.T) {
	s := contendedSnapshots(t)[0]
	cfg := DefaultConfig(9)
	cfg.MeshW, cfg.MeshH = 3, 3
	fab, eng, _, _ := fabricFor(t, cfg)
	fab.SendMessage(0, 1, 1, 10)
	fab.SendMessage(0, 1, 2, 10)
	fab.SendMessage(0, 8, 3, 10)
	eng.Run(0)
	parts := fab.Topo.SnakeOrder()
	inputs := make([][]uint32, len(parts))
	for r := range inputs {
		inputs[r] = []uint32{uint32(r)}
	}
	spec := CollSpec{Kind: CollAllReduce, Schedule: CollTree, Parts: parts, Width: 1, Op: ReduceSum}
	if _, err := RunCollective(fab, spec, inputs, eng.Now()); err != nil {
		t.Fatal(err)
	}
	off := fab.Congestion()
	if off.Enabled || off.TotalStall() != 0 || off.CollectiveOps != 1 || off.Links != nil {
		t.Fatalf("disabled snapshot %+v, want only its collective op", off)
	}
	got := s.Merge(off)
	want := s
	want.CollectiveOps++
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("s.Merge(disabled) = %+v, want %+v", got, want)
	}
	if z := (CongestionStats{}).Merge(off); !reflect.DeepEqual(z, off) {
		t.Fatalf("zero.Merge(disabled) = %+v, want %+v", z, off)
	}
}
