// Package baseline implements the lock-step synchronization scheme the paper
// evaluates against (§6.4.3, after [18, 51]): a central controller with a
// star topology distributes the entire program flow to every controller, so
// all controllers execute the same instruction stream with idles substituted
// for other controllers' operations.
//
// Consequences modeled here, following the paper's description:
//
//   - every measurement outcome is broadcast through the central controller
//     at a constant latency, independent of system size (the paper calls
//     this assumption favourable to the baseline and keeps it; so do we);
//   - there is a single global program flow: every controller walks the same
//     branch structure, so a conditioned region acts as a global decision
//     point — operations after it (in program order) cannot start before it
//     resolves, and concurrent feedback serializes (the QuAPE limitation
//     cited in §2.1.2);
//   - deterministic operations before a decision point still execute in
//     parallel on their own qubits.
//
// The executor walks the circuit in program order with per-qubit timelines
// plus a global watermark that every conditioned operation advances.
package baseline

import (
	"errors"
	"fmt"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/sim"
)

// Broadcast is the constant result-distribution latency through the
// central controller, a 10-cycle (40 ns) round trip (§6.4.3:
// "communication latency of a feedback operation as constant, regardless
// of the number of qubits").
const Broadcast sim.Time = 10

// Comparator is one lock-step system the comparison can mean: a name and
// the assumption, with its § cite, that sets it apart.
type Comparator struct {
	Name       string
	Assumption string
	hub        bool // simultaneous results serialize on the central bus
}

// Hub is the comparator Fig. 15's headline mean, Fig. 16 and the
// facade's Lockstep read.
var Hub = Comparator{"hub", "§6.4.3 after [18, 51]: a star topology, with simultaneous results serializing on the central bus", true}

// Comparators is every lock-step comparator, in report order. All of them
// end a run at the last operation's end and charge no trailing broadcast,
// while BISP's makespan ends when halt retires after the last result
// latch; ROADMAP item 1(c) aligns the two ends.
var Comparators = []Comparator{
	Hub,
	{"favorable", "§6.4.3 taken literally: constant feedback latency and unlimited broadcast concurrency", false},
}

// Result summarizes a lock-step execution.
type Result struct {
	Makespan sim.Time
	Bits     []int
}

// Run executes the circuit under cmp's lock-step semantics, drawing
// outcomes from backend (the BISP run's seeded source, for identical
// branches), with the operation times and measurement latency (measurement
// start to the result latched at its own controller) the BISP side's chip
// charges: circuit.PaperDurations and chip.MeasLatency.
func Run(c *circuit.Circuit, cmp Comparator, backend chip.Backend) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if backend == nil {
		return Result{}, errors.New("baseline: nil backend")
	}
	avail := make([]sim.Time, c.NumQubits)  // per-qubit availability
	bitReady := make([]sim.Time, c.NumBits) // when a bit is broadcast-visible
	bits := make([]int, c.NumBits)
	var watermark sim.Time // global flow position: decisions gate everything
	var busUntil sim.Time  // the central controller's broadcast bus
	d := circuit.PaperDurations()
	res := Result{Bits: bits}

	for _, op := range c.Ops {
		if op.Kind == circuit.Barrier {
			// Global barrier: lift the watermark to every qubit's frontier.
			for _, t := range avail {
				watermark = max(watermark, t)
			}
			continue
		}
		start := watermark
		for _, q := range op.Qubits {
			start = max(start, avail[q])
		}
		if op.Cond != nil {
			// The decision needs every condition bit broadcast to all
			// controllers; the whole flow waits for the decision.
			for _, b := range op.Cond.Bits {
				start = max(start, bitReady[b])
			}
			// Decision point: the shared flow cannot advance past an
			// unresolved branch, so later operations in program order start
			// no earlier than this decision.
			watermark = max(watermark, start)
			if !op.Cond.Holds(bits) {
				// The skipped branch still consumes the decision point but
				// no gate time (shared flow skips together, unlike
				// time-reservation).
				continue
			}
		}
		end := start + d.Of(op.Kind, op.Param, 0)
		for _, q := range op.Qubits {
			avail[q] = end
		}
		var q [2]int
		copy(q[:], op.Qubits)
		out := backend.Apply(op.Kind, op.Param, q[0], q[1])
		if op.Kind == circuit.Measure {
			bits[op.CBit] = out
			// Result latched locally, then broadcast via the central node.
			latched := start + chip.MeasLatency
			if cmp.hub {
				// The star topology has one hub: simultaneous results
				// serialize on its bus.
				busUntil = max(busUntil, latched) + Broadcast
				bitReady[op.CBit] = busUntil
			} else {
				bitReady[op.CBit] = latched + Broadcast
			}
		}
		res.Makespan = max(res.Makespan, end)
	}
	// Trailing broadcast of the last results is part of program completion
	// only if someone consumes them; makespan tracks operation ends.
	res.Makespan = max(res.Makespan, watermark)
	return res, nil
}

// Compare is a convenience for experiments: it reports the ratio of BISP
// makespan to lock-step makespan.
func Compare(bisp, lockstep sim.Time) (float64, error) {
	if lockstep <= 0 {
		return 0, fmt.Errorf("baseline: non-positive lock-step makespan")
	}
	return float64(bisp) / float64(lockstep), nil
}
