package network

import (
	"reflect"
	"testing"
)

// contendedSnapshots runs three different bursts of traffic on one
// contended 3x3 fabric and returns the congestion snapshot of each: mesh
// links (neighbor messages) and router ports (tree messages) both queue,
// and the links overlap between bursts only in part.
func contendedSnapshots(t *testing.T) []CongestionStats {
	t.Helper()
	cfg := DefaultConfig(9)
	cfg.MeshW, cfg.MeshH = 3, 3
	cfg.LinkSerialization = 3
	fab, eng, _, _ := fabricFor(t, cfg)
	bursts := [][][2]int{
		// The centre talks to all four neighbours, in slot order +x -x +y -y,
		// and twice to a far corner.
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
// count and stall and keeps every maximum — so a summed
// maximum shows. Merging the three snapshots sums their stalls.
func TestCongestionMergeFields(t *testing.T) {
	snaps := contendedSnapshots(t)
	s := snaps[0]
	d := s.Merge(s)
	want := CongestionStats{
		Enabled:      true,
		LinkMessages: 2 * s.LinkMessages,
		LinkStall:    2 * s.LinkStall,
		LinkMaxQueue: s.LinkMaxQueue,
		PortMessages: 2 * s.PortMessages,
		PortStall:    2 * s.PortStall,
		PortMaxQueue: s.PortMaxQueue,
		PortBusiest:  s.PortBusiest,
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("s.Merge(s) = %+v, want %+v", d, want)
	}

	all := snaps[0].Merge(snaps[1]).Merge(snaps[2])
	if all.TotalStall() != snaps[0].TotalStall()+snaps[1].TotalStall()+snaps[2].TotalStall() {
		t.Fatalf("merged stall %d is not the sum of the snapshots'", all.TotalStall())
	}
}

// TestCongestionMergeDisabledAddsNoStall: a snapshot taken with the
// contention model off — traffic run on it — is the zero value, so merging
// it moves no stall, and keeps the digest enabled.
func TestCongestionMergeDisabledAddsNoStall(t *testing.T) {
	s := contendedSnapshots(t)[0]
	cfg := DefaultConfig(9)
	cfg.MeshW, cfg.MeshH = 3, 3
	fab, eng, _, _ := fabricFor(t, cfg)
	fab.SendMessage(0, 1, 1, 10)
	fab.SendMessage(0, 1, 2, 10)
	fab.SendMessage(0, 8, 3, 10)
	eng.Run(0)
	off := fab.Congestion()
	if !reflect.DeepEqual(off, CongestionStats{}) {
		t.Fatalf("disabled snapshot %+v, want the zero value", off)
	}
	if got := s.Merge(off); !reflect.DeepEqual(got, s) {
		t.Fatalf("s.Merge(disabled) = %+v, want %+v", got, s)
	}
}
