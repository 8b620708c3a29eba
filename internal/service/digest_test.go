package service

import (
	"fmt"
	"strings"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/workloads"
)

// TestCongestionDigestPinned pins what the service's congestion digest
// reports after a fixed job sequence with the re-place loop on: the
// /v1/stats net_* counters, the replacement count, and every mapping the
// jobs echo. The sequence covers the digest's three shapes: a contended
// job of 300 shots, a contended 4-point sweep, and a collective job on the
// tree topology. Each crosses the threshold, so its pool group is
// re-placed, and a repeat of each then runs on — and echoes — the
// re-placed mapping. The pinned text was rendered while the service still
// folded a per-shot digest over runner.TreeReduce and kept a separate
// per-link re-place digest; a rewrite of the digest must leave it unchanged.
func TestCongestionDigestPinned(t *testing.T) {
	const want = `hub x300: mapping [1 4 6 9 0 2 7 8 10 13 3 11 12 14 15 5]
sweep x4: mapping [5 1 0 4 2 6 9 8 10 7 3 11 13 14 12 15]
tree collective x40: mapping identity
hub x7: mapping [7 6 9 1 0 2 5 8 10 13 3 11 12 14 15 4]
sweep x2: mapping [10 1 15 6 7 0 5 2 4 9 11 3 8 13 14 12]
tree collective x5: mapping [11 12 5 6 14 13 7 2 10 4 0 9 1 8 3 15]
net {NetStallCycles:124451 NetMaxQueue:19 NetMessages:107240 NetOverflows:0 NetCollectiveOps:45 NetCollectiveStall:2700}
replacements 3
`
	cfg := contendedCfg(16)
	svc := New(Config{Workers: 1, ShotWorkers: 3, MaxPooledReplicas: 16, ReplaceStallThreshold: 1})
	defer svc.Close()

	tree := hub(16)
	tree.Gate(circuit.X, 0) // its own fingerprint, so its own pool group
	sweep := make([]map[string]float64, 4)
	for k := range sweep {
		sweep[k] = workloads.QFTSweepPoint(16, k)
	}
	jobs := []struct {
		name string
		req  Request
	}{
		{"hub x300", Request{Circuit: hub(16), Cfg: &cfg, Placement: "interaction", Shots: 300, Seed: 1}},
		{"sweep x4", Request{Circuit: workloads.QFTSweep(16), Cfg: &cfg, Placement: "interaction", Shots: 5, Seed: 2, Sweep: sweep}},
		{"tree collective x40", Request{Circuit: tree, Cfg: &cfg, Topo: "tree", Collective: "tree", Shots: 40, Seed: 3}},
		{"hub x7", Request{Circuit: hub(16), Cfg: &cfg, Placement: "interaction", Shots: 7, Seed: 4}},
		{"sweep x2", Request{Circuit: workloads.QFTSweep(16), Cfg: &cfg, Placement: "interaction", Shots: 3, Seed: 5, Sweep: sweep[:2]}},
		{"tree collective x5", Request{Circuit: tree, Cfg: &cfg, Topo: "tree", Collective: "tree", Shots: 5, Seed: 6}},
	}
	var b strings.Builder
	for _, j := range jobs {
		st := submitWait(t, svc, j.req)
		if st.Mapping == nil {
			fmt.Fprintf(&b, "%s: mapping identity\n", j.name)
		} else {
			fmt.Fprintf(&b, "%s: mapping %v\n", j.name, st.Mapping)
		}
	}
	svc.Close() // the workers' post-job re-place bookkeeping has finished
	stats := svc.Stats()
	fmt.Fprintf(&b, "net %+v\nreplacements %d\n", stats.NetStats, stats.Replacements)
	if got := b.String(); got != want {
		t.Fatalf("congestion digest moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
