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
	Phase             string `json:"phase"`
	LinkSerialization int64  `json:"link_serialization_cycles"`
	Mapping           []int  `json:"mapping"`
	Counters
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
// star (the workload the strict gate names) plus qft and bv as
// must-not-regress companions.
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
		c, err := sweepCircuit(name, opt.Qubits)
		if err != nil {
			return nil, err
		}
		cfg := cellConfig(c.NumQubits, opt.Seed, opt.LinkBW)
		topo, err := network.NewTopology(cfg.Net)
		if err != nil {
			return nil, err
		}
		cold, err := placement.Place("interaction", c, topo)
		if err != nil {
			return nil, err
		}
		point := func(phase string, mapping []int, res machine.Result, links int) FeedbackPoint {
			return FeedbackPoint{
				Workload: name, Qubits: opt.Qubits, Phase: phase,
				LinkSerialization: int64(opt.LinkBW),
				Mapping:           append([]int(nil), mapping...),
				Counters:          countersOf(res),
				FeedbackLinks:     links,
			}
		}

		coldRes, err := runCell(c, cold, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: feedback %s cold: %w", name, err)
		}
		out = append(out, point("cold", cold, coldRes, len(coldRes.Net.Links)))

		replaced, _, err := machine.RePlace(c, cfg, cold, coldRes.Net)
		if err != nil {
			return nil, fmt.Errorf("exp: feedback %s re-place: %w", name, err)
		}
		repRes, err := runCell(c, replaced, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: feedback %s replaced: %w", name, err)
		}
		out = append(out, point("replaced", replaced, repRes, 0))
	}
	return out, nil
}

// feedbackGates holds re-placement to its claims.
//
//   - no_regression: no workload's re-placed total stall exceeds its cold
//     interaction run (RePlace keeps the incumbent unless a candidate
//     measures strictly better, so a regression means the loop is
//     broken); a workload missing a phase counts against it.
//   - hotspot_strict: on the hotspot the re-placed stall is strictly
//     below the cold one.
func feedbackGates(points []FeedbackPoint) []Gate {
	byPhase := map[string]map[string]FeedbackPoint{}
	for _, p := range points {
		if byPhase[p.Workload] == nil {
			byPhase[p.Workload] = map[string]FeedbackPoint{}
		}
		byPhase[p.Workload][p.Phase] = p
	}
	regressed := 0
	for _, w := range FeedbackWorkloads() {
		cold, okC := byPhase[w]["cold"]
		rep, okR := byPhase[w]["replaced"]
		if !okC || !okR || rep.TotalStall > cold.TotalStall {
			regressed++
		}
	}
	gates := []Gate{NewGate("no_regression", float64(regressed), "==", 0)}
	if hot := byPhase["hotspot"]; len(hot) == 2 {
		gates = append(gates, NewGate("hotspot_strict",
			float64(hot["replaced"].TotalStall), "<", float64(hot["cold"].TotalStall)))
	}
	return gates
}

var feedbackCols = []column[FeedbackPoint]{
	{"workload", func(p FeedbackPoint) string { return p.Workload }},
	{"phase", func(p FeedbackPoint) string { return p.Phase }},
	{"stall(cy)", func(p FeedbackPoint) string { return fmt.Sprint(p.TotalStall) }},
	{"makespan(cy)", func(p FeedbackPoint) string { return fmt.Sprint(p.Makespan) }},
	{"sync(cy)", func(p FeedbackPoint) string { return fmt.Sprint(p.SyncStall) }},
	{"maxq", func(p FeedbackPoint) string { return fmt.Sprint(p.MaxQueue) }},
	{"fb links", func(p FeedbackPoint) string { return fmt.Sprint(p.FeedbackLinks) }},
}
