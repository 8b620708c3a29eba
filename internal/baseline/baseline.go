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
	"fmt"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/sim"
)

// Config parameterizes the lock-step run.
type Config struct {
	Durations circuit.Durations
	// MeasLatency is the delay from measurement start to the result being
	// latched at its own controller (window + discrimination), as in the
	// Distributed-HISQ machine.
	MeasLatency sim.Time
	// Broadcast is the constant result-distribution latency through the
	// central controller (§6.4.3: "communication latency of a feedback
	// operation as constant, regardless of the number of qubits").
	Broadcast sim.Time
	// Backend supplies measurement outcomes; use the same seeded backend as
	// the BISP run for a branch-identical comparison.
	Backend chip.Backend
	// IssueCost models the instruction-issue-rate burden of the shared
	// program flow (§1.1, §2.1.2): every controller steps through the merged
	// program — including other controllers' operations replaced by
	// wait/idle/delay instructions — so the global flow advances at least
	// IssueCost cycles per program operation.
	IssueCost sim.Time
	// SerializeBroadcasts routes every measurement result through the single
	// central controller's bus (one broadcast at a time). The paper's
	// favourable baseline assumes constant per-feedback latency, which this
	// preserves, but a star hub still serializes *simultaneous* results.
	SerializeBroadcasts bool
}

// DefaultConfig mirrors the machine defaults with a 10-cycle (40 ns)
// round-trip broadcast through the central controller.
func DefaultConfig(backend chip.Backend) Config {
	d := circuit.PaperDurations()
	return Config{
		Durations:           d,
		MeasLatency:         d.Measure + 5,
		Broadcast:           10,
		Backend:             backend,
		IssueCost:           0,
		SerializeBroadcasts: true,
	}
}

// FavorableConfig is the paper's §6.4.3 assumption taken literally:
// feedback latency constant regardless of qubit count *and* unlimited
// broadcast concurrency (no hub bus). It is strictly generous to lock-step.
func FavorableConfig(backend chip.Backend) Config {
	c := DefaultConfig(backend)
	c.SerializeBroadcasts = false
	return c
}

// Result summarizes a lock-step execution.
type Result struct {
	Makespan     sim.Time
	Gates        uint64
	Measurements uint64
	Feedbacks    uint64
	// SerializedWait is the total extra time conditioned operations spent
	// waiting on the global watermark beyond their data dependencies — the
	// cost of forcing one program flow.
	SerializedWait sim.Time
	Bits           []int
}

// Run executes the circuit under lock-step semantics and returns the
// makespan and classical record.
func Run(c *circuit.Circuit, cfg Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Backend == nil {
		cfg.Backend = chip.NewSeeded(1)
	}
	d := cfg.Durations
	avail := make([]sim.Time, c.NumQubits)  // per-qubit availability
	bitReady := make([]sim.Time, c.NumBits) // when a bit is broadcast-visible
	bits := make([]int, c.NumBits)
	var watermark sim.Time // global flow position: decisions gate everything
	var busUntil sim.Time  // the central controller's broadcast bus
	res := Result{Bits: bits}

	for _, op := range c.Ops {
		// Issue-rate floor: the shared flow steps through every operation of
		// the merged program on all controllers.
		watermark += cfg.IssueCost
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
			res.Feedbacks++
			// The decision needs every condition bit broadcast to all
			// controllers; the whole flow waits for the decision.
			for _, b := range op.Cond.Bits {
				start = max(start, bitReady[b])
			}
			// Decision point: the shared flow cannot advance past an
			// unresolved branch, so later operations in program order start
			// no earlier than this decision.
			if start > watermark {
				res.SerializedWait += start - watermark
				watermark = start
			}
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
		out := chip.Apply(cfg.Backend, op.Kind, op.Param, q[0], q[1])
		switch op.Kind {
		case circuit.Measure:
			bits[op.CBit] = out
			res.Measurements++
			// Result latched locally, then broadcast via the central node.
			latched := start + cfg.MeasLatency
			if cfg.SerializeBroadcasts {
				// The star topology has one hub: simultaneous results
				// serialize on its bus.
				busUntil = max(busUntil, latched)
				busUntil += cfg.Broadcast
				bitReady[op.CBit] = busUntil
			} else {
				bitReady[op.CBit] = latched + cfg.Broadcast
			}
		case circuit.Delay:
		default:
			res.Gates++
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
