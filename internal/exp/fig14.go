package exp

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/sim"
)

// Fig14Point compares the dynamic long-range CNOT against SWAP routing at
// one qubit distance: circuit depth (the figure's claim: "this scheme
// maintains constant circuit depth as the number of qubits grows") and the
// measured makespan through the full control stack.
type Fig14Point struct {
	Distance     int
	DynamicDepth int64
	SwapDepth    int64
	DynamicMake  sim.Time
	SwapMake     sim.Time
}

// Fig14Result is the distance sweep.
type Fig14Result struct {
	Points []Fig14Point
}

// Fig14LongRange sweeps the control-target distance and executes both
// variants on the Distributed-HISQ machine at each.
func Fig14LongRange(distances []int, seed int64) (Fig14Result, error) {
	if len(distances) == 0 {
		distances = []int{2, 4, 8, 16, 32}
	}
	d := circuit.PaperDurations()
	var out Fig14Result
	for _, dist := range distances {
		logical := circuit.New(dist + 1)
		logical.X(0)
		logical.CNOT(0, dist)
		logical.MeasureInto(dist, 0)
		dyn, err := circuit.DualRailEmbedding{}.Embed(logical)
		if err != nil {
			return out, err
		}
		// SWAP-routed static alternative on the same dual-rail device.
		sw := circuit.New(2 * (dist + 1))
		sw.X(0)
		chain := make([]int, dist-1)
		for i := range chain {
			chain[i] = i + 1
		}
		sw.SwapRouteCNOT(0, dist, chain)
		sw.MeasureInto(dist, 0)

		w := (dyn.NumQubits + 1) / 2
		cfg := machine.DefaultConfig(dyn.NumQubits)
		cfg.Backend = machine.BackendStabilizer
		cfg.Seed = seed
		res, _, err := machine.RunCircuit(dyn, w, 2, nil, cfg)
		if err != nil {
			return out, fmt.Errorf("distance %d dynamic: %w", dist, err)
		}
		cfg2 := machine.DefaultConfig(sw.NumQubits)
		cfg2.Backend = machine.BackendStabilizer
		cfg2.Seed = seed
		res2, _, err := machine.RunCircuit(sw, w, 2, nil, cfg2)
		if err != nil {
			return out, fmt.Errorf("distance %d swap: %w", dist, err)
		}
		out.Points = append(out.Points, Fig14Point{
			Distance:     dist,
			DynamicDepth: dyn.Depth(d),
			SwapDepth:    sw.Depth(d),
			DynamicMake:  res.Makespan,
			SwapMake:     res2.Makespan,
		})
	}
	return out, nil
}

var fig14Cols = []column[Fig14Point]{
	{"distance", func(p Fig14Point) string { return fmt.Sprint(p.Distance) }},
	{"dyn depth(cy)", func(p Fig14Point) string { return fmt.Sprint(p.DynamicDepth) }},
	{"swap depth(cy)", func(p Fig14Point) string { return fmt.Sprint(p.SwapDepth) }},
	{"dyn makespan", func(p Fig14Point) string { return fmt.Sprint(p.DynamicMake) }},
	{"swap makespan", func(p Fig14Point) string { return fmt.Sprint(p.SwapMake) }},
}

// fig14Gates holds Fig. 14's claim — the dynamic long-range CNOT "maintains
// constant circuit depth as the number of qubits grows" while SWAP routing
// pays for the distance — on a sweep in ascending distance order that
// reaches both sides of distances 8 and 16.
//
//   - points: the sweep has at least two distances.
//   - dynamic_depth_flat: every point's dynamic depth equals the first's.
//   - swap_depth_rising: swap depth strictly rises with distance.
//   - crossover_8_to_16: swap routing is the shallower of the two at every
//     distance up to 8 and the deeper from 16 on, and the sweep has points
//     on both sides.
//   - dynamic_makespan_growth: from the first distance to the last, the
//     dynamic makespan through the full stack grows by a smaller factor
//     than the swap makespan (the value is the dynamic factor, the bound
//     the swap one).
func fig14Gates(points []Fig14Point) []Gate {
	if len(points) < 2 {
		return []Gate{NewGate("points", float64(len(points)), ">=", 2)}
	}
	first, last := points[0], points[len(points)-1]
	uneven, flat, crossover := 0, 0, 0
	below, above := false, false
	for i, p := range points {
		if p.DynamicDepth != first.DynamicDepth {
			uneven++
		}
		if i > 0 && p.SwapDepth <= points[i-1].SwapDepth {
			flat++
		}
		if p.Distance <= 8 {
			below = true
			if p.SwapDepth >= p.DynamicDepth {
				crossover++
			}
		}
		if p.Distance >= 16 {
			above = true
			if p.SwapDepth <= p.DynamicDepth {
				crossover++
			}
		}
	}
	if !below || !above {
		crossover++
	}
	growth := func(to, from sim.Time) float64 { return float64(to) / float64(from) }
	return []Gate{
		NewGate("dynamic_depth_flat", float64(uneven), "==", 0),
		NewGate("swap_depth_rising", float64(flat), "==", 0),
		NewGate("crossover_8_to_16", float64(crossover), "==", 0),
		NewGate("dynamic_makespan_growth", growth(last.DynamicMake, first.DynamicMake), "<",
			growth(last.SwapMake, first.SwapMake)),
	}
}
