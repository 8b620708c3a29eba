package exp

import (
	"fmt"

	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
)

// The feedback experiment measures what closing the compile↔fabric loop
// buys: the same workloads first compiled cold (interaction placement —
// the best static policy, chosen blind to runtime contention), then
// re-placed by measured runs on the contended fabric (machine.RePlace: a
// swap descent from the cold mapping on the probed makespan). Static cost
// models cannot see temporal contention — two edges of equal weight can
// load one link in bursts or spread evenly — so the measured loop is
// expected to shave makespan the interaction placer leaves on the table,
// most visibly on the adversarial hotspot workload.

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
}

// FeedbackWorkloads names the circuits the experiment runs: the hotspot
// star (the workload the strict gate names) plus qft and bv as
// must-not-regress companions.
func FeedbackWorkloads() []string { return []string{"hotspot", "qft", "bv"} }

// FeedbackSweep runs each workload twice — cold under interaction
// placement, then re-placed by measured runs from the cold mapping — and
// returns the paired points in deterministic order (cold before replaced,
// workloads in FeedbackWorkloads order).
func FeedbackSweep(seed int64) ([]FeedbackPoint, error) {
	var out []FeedbackPoint
	for _, name := range FeedbackWorkloads() {
		c, err := sweepCircuit(name)
		if err != nil {
			return nil, err
		}
		cfg := cellConfig(c.NumQubits, seed, sweepLinkBW)
		topo, err := network.NewTopology(cfg.Net)
		if err != nil {
			return nil, err
		}
		cold, err := placement.Place("interaction", c, topo)
		if err != nil {
			return nil, err
		}
		point := func(phase string, mapping []int, res machine.Result) FeedbackPoint {
			return FeedbackPoint{
				Workload: name, Qubits: c.NumQubits, Phase: phase,
				LinkSerialization: int64(sweepLinkBW),
				Mapping:           append([]int(nil), mapping...),
				Counters:          countersOf(res),
			}
		}

		coldRes, err := runCell(c, cold, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: feedback %s cold: %w", name, err)
		}
		out = append(out, point("cold", cold, coldRes))

		replaced, _, err := machine.RePlace(c, cfg, cold)
		if err != nil {
			return nil, fmt.Errorf("exp: feedback %s re-place: %w", name, err)
		}
		repRes, err := runCell(c, replaced, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: feedback %s replaced: %w", name, err)
		}
		out = append(out, point("replaced", replaced, repRes))
	}
	return out, nil
}

// feedbackGates holds re-placement to its claims, on makespan.
//
//   - no_regression: no workload's re-placed makespan exceeds its cold
//     interaction run (RePlace keeps the incumbent unless a swap measures
//     strictly better, so a regression means the loop is broken); a
//     workload missing a phase counts against it.
//   - hotspot_strict: on the hotspot the re-placed makespan is strictly
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
		if !okC || !okR || rep.Makespan > cold.Makespan {
			regressed++
		}
	}
	gates := []Gate{NewGate("no_regression", float64(regressed), "==", 0)}
	if hot := byPhase["hotspot"]; len(hot) == 2 {
		gates = append(gates, NewGate("hotspot_strict",
			float64(hot["replaced"].Makespan), "<", float64(hot["cold"].Makespan)))
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
}
