package network

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
)

// collScriptsGolden is the SHA-256 of renderCollScripts's output. It was
// produced by the four switch-per-kind schedule builders this package had at
// commit 7ec116c, before the schedule table replaced them, and is not edited
// to make a change pass: a schedule change that moves it moves simulated
// cycles, and says so by regenerating BENCH_collective.json with it.
const collScriptsGolden = "3e67c041419148c67549ab86c249dc4e94595f595bc0f9261909a84dcd103a55"

// stepWords expands a step to the word indices it moves, in wire order.
func stepWords(st collStep) []int {
	var words []int
	for w := st.lo; w < st.hi; w++ {
		words = append(words, w)
	}
	return words
}

// renderCollScripts writes the canonical rendering of buildCollScripts for
// every cell of kind × schedule × topology × participant count × root × width:
// a header line per cell, then one line per step — rank, step index, S(end) or
// R(eceive), peer rank, c(ombine) or - (overwrite), and the word indices.
func renderCollScripts(t *testing.T, w io.Writer) {
	for _, kind := range []CollKind{CollBroadcast, CollReduce, CollAllReduce} {
		for _, sched := range []CollSchedule{CollNaive, CollRing, CollHalving, CollTree} {
			for _, tk := range []TopologyKind{TopoMesh, TopoTorus, TopoTree} {
				cfg := DefaultConfig(36)
				cfg.Topology = tk
				topo := mustTopo(t, cfg)
				for _, n := range []int{1, 2, 3, 5, 8, 9, 16, 18, 36} {
					for _, root := range []int{0, n / 2, n - 1} {
						for _, width := range []int{1, 8, n + 3} {
							spec := CollSpec{
								Kind: kind, Schedule: sched, Parts: topo.SnakeOrder()[:n],
								Root: root, Width: width, Op: ReduceSum,
							}
							steps, err := buildCollScripts(topo, spec)
							if err != nil {
								t.Fatalf("%s/%s on %s n=%d root=%d width=%d: %v", kind, sched, tk, n, root, width, err)
							}
							fmt.Fprintf(w, "%s %s %s n=%d root=%d width=%d\n", kind, sched, tk, n, root, width)
							for rank, script := range steps {
								for i, st := range script {
									dir, fold := 'R', '-'
									if st.send {
										dir = 'S'
									}
									if st.combine {
										fold = 'c'
									}
									fmt.Fprintf(w, "%d %d %c %d %c %v\n", rank, i, dir, st.peer, fold, stepWords(st))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCollScriptsGolden holds every retained schedule cell, step for step,
// to what the builders emitted before they became one table.
func TestCollScriptsGolden(t *testing.T) {
	h := sha256.New()
	renderCollScripts(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != collScriptsGolden {
		t.Fatalf("collective scripts digest %s, want %s", got, collScriptsGolden)
	}
}
