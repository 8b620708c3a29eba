package service

import (
	"fmt"
	"strings"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/workloads"
)

// TestCongestionDigestPinned pins what the service's congestion digest
// reports after a fixed job sequence: the /v1/stats net_* counters and
// every mapping the jobs echo. The sequence covers the digest's three
// shapes: a contended job of 300 shots, a contended 4-point sweep, and a
// job on the tree topology; a repeat of each then runs, and echoes the
// mapping its body asks for — the same body runs the same program at every
// point in the service's history. The pinned text was rendered while the
// service still folded a per-shot digest over a host reduction tree and
// kept a separate per-link re-place digest; a rewrite of the digest must
// leave it unchanged. It was re-pinned when the always-zero NetOverflows
// left the net line, and when the service's re-place loop was deleted (the
// repeats then echo their first job's mapping, the net line counts the
// traffic of those mappings, and the replacements line went). Its two tree
// jobs were relabelled once, when a lowering option they set (and that
// never acted on their unconditioned circuit) was deleted.
func TestCongestionDigestPinned(t *testing.T) {
	const want = `hub x300: mapping [1 4 6 9 0 2 7 8 10 13 3 11 12 14 15 5]
sweep x4: mapping [5 1 0 4 2 6 9 8 10 7 3 11 13 14 12 15]
tree x40: mapping identity
hub x7: mapping [1 4 6 9 0 2 7 8 10 13 3 11 12 14 15 5]
sweep x2: mapping [5 1 0 4 2 6 9 8 10 7 3 11 13 14 12 15]
tree x5: mapping identity
net {NetStallCycles:127068 NetMaxQueue:19 NetMessages:105284}
`
	cfg := contendedCfg(16)
	svc := New(Config{Workers: 1, ShotWorkers: 3})
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
		{"hub x300", Request{Circuit: hub(16), Placement: "interaction", Shots: 300, Seed: 1}},
		{"sweep x4", Request{Circuit: workloads.QFTSweep(16), Placement: "interaction", Shots: 5, Seed: 2, Sweep: sweep}},
		{"tree x40", Request{Circuit: tree, Topo: "tree", Shots: 40, Seed: 3}},
		{"hub x7", Request{Circuit: hub(16), Placement: "interaction", Shots: 7, Seed: 4}},
		{"sweep x2", Request{Circuit: workloads.QFTSweep(16), Placement: "interaction", Shots: 3, Seed: 5, Sweep: sweep[:2]}},
		{"tree x5", Request{Circuit: tree, Topo: "tree", Shots: 5, Seed: 6}},
	}
	var b strings.Builder
	for _, j := range jobs {
		st := enqueueWait(t, svc, mustResolve(t, j.req, cfg))
		if st.Mapping == nil {
			fmt.Fprintf(&b, "%s: mapping identity\n", j.name)
		} else {
			fmt.Fprintf(&b, "%s: mapping %v\n", j.name, st.Mapping)
		}
	}
	fmt.Fprintf(&b, "net %+v\n", svc.Stats().NetStats)
	if got := b.String(); got != want {
		t.Fatalf("congestion digest moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// hub builds the adversarial hotspot workload: every data qubit CNOTs
// into one hub controller, congesting the hub's links under finite link
// bandwidth. Same shape as the hotspot workload of dhisq-bench's
// placement and feedback sweeps.
func hub(n int) *circuit.Circuit {
	c := circuit.New(n)
	h := n - 1
	for round := 0; round < 3; round++ {
		for q := 0; q < n-1; q++ {
			c.CNOT(q, h)
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

func contendedCfg(n int) machine.Config {
	cfg := machine.DefaultConfig(n)
	cfg.Backend = machine.BackendSeeded
	cfg.Net.LinkSerialization = 4
	return cfg
}
