package network

import "testing"

// TestShapeMatchesNewTopology pins Config.Shape's arithmetic — what compile
// options and the artifact key read instead of building a tree — against the
// tree NewTopology builds, and its error cases against NewTopology's.
func TestShapeMatchesNewTopology(t *testing.T) {
	for w := 1; w <= 9; w++ {
		for h := 1; h <= 9; h++ {
			for fanout := 2; fanout <= 5; fanout++ {
				cfg := DefaultConfig(1)
				cfg.MeshW, cfg.MeshH, cfg.RouterFanout = w, h, fanout
				topo, err := NewTopology(cfg)
				if err != nil {
					t.Fatal(err)
				}
				n, root, err := cfg.Shape()
				if err != nil || n != topo.N || root != topo.Root {
					t.Fatalf("%dx%d fanout %d: Shape = (%d, %d, %v), topology has N=%d Root=%d",
						w, h, fanout, n, root, err, topo.N, topo.Root)
				}
			}
		}
	}
	for _, bad := range []Config{{MeshW: 0, MeshH: 3, RouterFanout: 4}, {MeshW: 2, MeshH: 2, RouterFanout: 1}} {
		_, _, shapeErr := bad.Shape()
		_, topoErr := NewTopology(bad)
		if shapeErr == nil || topoErr == nil || shapeErr.Error() != topoErr.Error() {
			t.Fatalf("%+v: Shape says %v, NewTopology says %v", bad, shapeErr, topoErr)
		}
	}
}
