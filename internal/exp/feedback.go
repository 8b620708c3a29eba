package exp

import (
	"fmt"

	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/sim"
)

// The feedback experiment measures what closing the compile↔fabric loop
// buys: the same workloads first compiled cold (interaction placement —
// the best static policy, chosen blind to runtime contention), then
// re-placed from the congestion feedback that cold run measured
// (machine.RePlace: stall-weighted candidates plus measured swap descent).
// Static cost models cannot see temporal contention — two edges of equal
// weight can load one link in bursts or spread evenly — so the measured
// loop is expected to shave stall cycles the interaction placer leaves on
// the table, most visibly on the adversarial hotspot workload.

// FeedbackPoint is one (workload, phase) cell: phase "cold" is the static
// interaction placement, phase "replaced" the feedback-re-placed mapping
// of the same circuit on the same fabric.
type FeedbackPoint struct {
	Workload string `json:"workload"`
	Qubits   int    `json:"qubits"`
	// Phase is "cold" or "replaced".
	Phase             string  `json:"phase"`
	LinkSerialization int64   `json:"link_serialization_cycles"`
	Mapping           []int   `json:"mapping"`
	Makespan          int64   `json:"makespan_cycles"`
	TotalStall        int64   `json:"total_stall_cycles"`
	SyncStall         int64   `json:"sync_stall_cycles"`
	MaxQueue          int     `json:"max_queue_depth"`
	RouterUtilization float64 `json:"router_utilization"`
	// FeedbackLinks is the number of distinct congested links the cold
	// run attributed stall to (0 on replaced rows).
	FeedbackLinks int `json:"feedback_links,omitempty"`
}

// FeedbackOptions parameterizes the experiment. Zero values pick the
// defaults used by dhisq-bench -exp feedback (the same fabric as the
// placement sweep, so the two BENCH files are directly comparable).
type FeedbackOptions struct {
	Qubits int      // workload size (default 16)
	Seed   int64    // backend seed (default 1)
	LinkBW sim.Time // link serialization in cycles (default 4)
}

// FeedbackWorkloads names the circuits the experiment runs: the hotspot
// star (the CI-gated workload) plus qft and bv as must-not-regress
// companions.
func FeedbackWorkloads() []string { return []string{"hotspot", "qft", "bv"} }

// FeedbackSweep runs each workload twice — cold under interaction
// placement, then re-placed from that run's measured congestion — and
// returns the paired points in deterministic order (cold before replaced,
// workloads in FeedbackWorkloads order).
func FeedbackSweep(opt FeedbackOptions) ([]FeedbackPoint, error) {
	if opt.Qubits <= 0 {
		opt.Qubits = 16
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.LinkBW <= 0 {
		opt.LinkBW = 4
	}
	var out []FeedbackPoint
	for _, name := range FeedbackWorkloads() {
		c, err := placementCircuit(name, opt.Qubits)
		if err != nil {
			return nil, err
		}
		cfg := machine.DefaultConfig(c.NumQubits)
		cfg.Backend = machine.BackendSeeded
		cfg.Seed = opt.Seed
		cfg.Net.LinkSerialization = opt.LinkBW

		topo, err := network.NewTopology(cfg.Net)
		if err != nil {
			return nil, err
		}
		pol, err := placement.Get("interaction")
		if err != nil {
			return nil, err
		}
		cold, err := pol.Place(c, topo)
		if err != nil {
			return nil, err
		}

		run := func(mapping []int) (machine.Result, error) {
			m, err := machine.NewForCircuit(c, cfg.Net.MeshW, cfg.Net.MeshH, cfg)
			if err != nil {
				return machine.Result{}, err
			}
			cp, err := m.CompileFresh(c, mapping)
			if err != nil {
				return machine.Result{}, err
			}
			if err := m.Load(cp); err != nil {
				return machine.Result{}, err
			}
			rs, err := m.RunShots(1)
			if err != nil {
				return machine.Result{}, err
			}
			return rs[0], nil
		}

		coldRes, err := run(cold)
		if err != nil {
			return nil, fmt.Errorf("exp: feedback %s cold: %w", name, err)
		}
		fb := machine.HarvestFeedback([]machine.Result{coldRes})
		out = append(out, feedbackPoint(name, "cold", opt, cold, coldRes, len(fb.Links)))

		replaced, _, err := machine.RePlace(c, cfg, cold, fb)
		if err != nil {
			return nil, fmt.Errorf("exp: feedback %s re-place: %w", name, err)
		}
		repRes, err := run(replaced)
		if err != nil {
			return nil, fmt.Errorf("exp: feedback %s replaced: %w", name, err)
		}
		out = append(out, feedbackPoint(name, "replaced", opt, replaced, repRes, 0))
	}
	return out, nil
}

func feedbackPoint(name, phase string, opt FeedbackOptions, mapping []int, res machine.Result, links int) FeedbackPoint {
	return FeedbackPoint{
		Workload:          name,
		Qubits:            opt.Qubits,
		Phase:             phase,
		LinkSerialization: int64(opt.LinkBW),
		Mapping:           append([]int(nil), mapping...),
		Makespan:          int64(res.Makespan),
		TotalStall:        int64(res.Net.TotalStall()),
		SyncStall:         int64(res.SyncStall),
		MaxQueue:          res.Net.MaxQueue(),
		RouterUtilization: res.RouterUtilization,
		FeedbackLinks:     links,
	}
}

// CheckFeedbackImproves verifies the experiment's headline claims: on the
// hotspot workload the re-placed mapping must strictly reduce total stall
// cycles below the cold interaction run, and no workload may regress
// (RePlace's probe selection keeps the incumbent unless a candidate
// measures strictly better, so a regression means the loop is broken).
func CheckFeedbackImproves(points []FeedbackPoint) error {
	rows := map[string]map[string]FeedbackPoint{}
	for _, p := range points {
		if rows[p.Workload] == nil {
			rows[p.Workload] = map[string]FeedbackPoint{}
		}
		rows[p.Workload][p.Phase] = p
	}
	for _, w := range FeedbackWorkloads() {
		cold, okC := rows[w]["cold"]
		rep, okR := rows[w]["replaced"]
		if !okC || !okR {
			return fmt.Errorf("exp: feedback: workload %q missing a phase", w)
		}
		if rep.TotalStall > cold.TotalStall {
			return fmt.Errorf("exp: feedback: %s re-place regressed stalls %d -> %d", w, cold.TotalStall, rep.TotalStall)
		}
		if w == "hotspot" && rep.TotalStall >= cold.TotalStall {
			return fmt.Errorf("exp: feedback: hotspot re-place did not strictly improve (stalls %d -> %d)", cold.TotalStall, rep.TotalStall)
		}
	}
	return nil
}

// RenderFeedback formats the paired sweep as a text table.
func RenderFeedback(points []FeedbackPoint) string {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			p.Workload,
			p.Phase,
			fmt.Sprint(p.TotalStall),
			fmt.Sprint(p.Makespan),
			fmt.Sprint(p.SyncStall),
			fmt.Sprint(p.MaxQueue),
			fmt.Sprint(p.FeedbackLinks),
		})
	}
	return Table([]string{"workload", "phase", "stall(cy)", "makespan(cy)", "sync(cy)", "maxq", "fb links"}, rows)
}
