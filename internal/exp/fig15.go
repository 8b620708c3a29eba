package exp

import (
	"fmt"
	"math"

	"dhisq/internal/baseline"
	"dhisq/internal/chip"
	"dhisq/internal/machine"
	"dhisq/internal/runner"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// Fig15Row is one bar of Figure 15: the normalized end-to-end runtime of a
// dynamic-circuit benchmark under BISP versus the lock-step baseline.
type Fig15Row struct {
	Name     string
	Qubits   int
	BISP     sim.Time // makespan, cycles
	Lockstep sim.Time // star-hub lock-step (broadcasts serialize at the hub)
	// Favorable is the lock-step makespan under the paper's fully favourable
	// assumption (§6.4.3): constant feedback latency with unlimited broadcast
	// concurrency.
	Favorable sim.Time
	// Floor is the circuit's depth under the machine's durations
	// (circuit.Depth): no control stack can finish the shot sooner.
	Floor         sim.Time
	Normalized    float64 // BISP / Lockstep (baseline = 1.0)
	NormFavorable float64 // BISP / Favorable
	Feedbacks     uint64
	Syncs         sim.Time // total BISP sync stall cycles
}

// Fig15Options parameterizes the sweep.
type Fig15Options struct {
	// ScaleDiv divides every benchmark's qubit count (1 = the paper's full
	// sizes; tests use 8-16 for speed).
	ScaleDiv int
	Seed     int64
	// Names restricts the run (nil = the full Figure 15 suite).
	Names []string
}

// Fig15Result is the full figure.
type Fig15Result struct {
	Rows             []Fig15Row
	Average          float64 // mean normalized runtime (paper: 0.772)
	AverageFavorable float64 // mean BISP / Favorable
}

// Fig15Runtime reproduces Figure 15: every benchmark compiled and executed
// on the Distributed-HISQ machine (BISP), then replayed under the lock-step
// model with the same seeded outcome source, so both take identical
// branches.
func Fig15Runtime(opt Fig15Options) (Fig15Result, error) {
	if opt.ScaleDiv <= 0 {
		opt.ScaleDiv = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	names := opt.Names
	if names == nil {
		names = workloads.Fig15Names()
	}
	var out Fig15Result
	sum, favSum := 0.0, 0.0
	for _, name := range names {
		b, err := workloads.BuildScaled(name, opt.ScaleDiv)
		if err != nil {
			return out, err
		}
		row, err := fig15One(b, opt.Seed)
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		out.Rows = append(out.Rows, row)
		sum += row.Normalized
		favSum += row.NormFavorable
	}
	if len(out.Rows) > 0 {
		out.Average = sum / float64(len(out.Rows))
		out.AverageFavorable = favSum / float64(len(out.Rows))
	}
	return out, nil
}

func fig15One(b workloads.Benchmark, seed int64) (Fig15Row, error) {
	cfg := machine.DefaultConfig(b.Qubits)
	cfg.Backend = machine.BackendSeeded
	cfg.Seed = seed
	// One shot through the shot-execution subsystem; shot 0 runs with the
	// base seed, so the lock-step replay below takes identical branches.
	set, err := runner.Run(runner.Spec{
		Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH,
		Mapping: b.Mapping, Cfg: cfg,
	}, 1, 1)
	if err != nil {
		return Fig15Row{}, err
	}
	res := set.Shots[0].Result
	if res.Misalignments != 0 || res.Violations != 0 {
		return Fig15Row{}, fmt.Errorf("invariant broken: %d misalignments, %d violations",
			res.Misalignments, res.Violations)
	}

	bres, err := baseline.Run(b.Circuit, baseline.DefaultConfig(chip.NewSeeded(seed)))
	if err != nil {
		return Fig15Row{}, err
	}
	fres, err := baseline.Run(b.Circuit, baseline.FavorableConfig(chip.NewSeeded(seed)))
	if err != nil {
		return Fig15Row{}, err
	}
	norm, err := baseline.Compare(res.Makespan, bres.Makespan)
	if err != nil {
		return Fig15Row{}, err
	}
	normFav, err := baseline.Compare(res.Makespan, fres.Makespan)
	if err != nil {
		return Fig15Row{}, err
	}
	return Fig15Row{
		Name:          b.Name,
		Qubits:        b.Qubits,
		BISP:          res.Makespan,
		Lockstep:      bres.Makespan,
		Favorable:     fres.Makespan,
		Floor:         sim.Time(b.Circuit.Depth(cfg.Durations)),
		Normalized:    norm,
		NormFavorable: normFav,
		Feedbacks:     bres.Feedbacks,
		Syncs:         res.SyncStall,
	}, nil
}

var fig15Cols = []column[Fig15Row]{
	{"benchmark", func(r Fig15Row) string { return r.Name }},
	{"qubits", func(r Fig15Row) string { return fmt.Sprint(r.Qubits) }},
	{"floor(cy)", func(r Fig15Row) string { return fmt.Sprint(r.Floor) }},
	{"bisp(cy)", func(r Fig15Row) string { return fmt.Sprint(r.BISP) }},
	{"lockstep(cy)", func(r Fig15Row) string { return fmt.Sprint(r.Lockstep) }},
	{"normalized", func(r Fig15Row) string { return fmt.Sprintf("%.3f", r.Normalized) }},
	{"vs favorable", func(r Fig15Row) string { return fmt.Sprintf("%.3f", r.NormFavorable) }},
}

// fig15PaperBound is how far the mean normalized runtime may sit from the
// paper's 0.772. At -scale 1 the mean reads 0.519 against the star-hub
// lock-step (1.098 against the favourable one); ROADMAP item 1(c) asks
// why, and the bound holds that distance from growing unnoticed.
const fig15PaperBound = 0.3

// fig15Gates holds Figure 15's headline claim (§6.4): BISP cuts the
// end-to-end runtime of dynamic-circuit benchmarks against the lock-step
// baseline (the paper: by 22.8 % on average, a mean of 0.772).
//
//   - mean_normalized: the mean BISP / lock-step ratio is below 1.
//   - bisp_below_floor: no row's BISP makespan is below its floor, the
//     circuit's dependency depth; a break is a timing-model bug.
//   - paper_distance: |mean − 0.772| is within fig15PaperBound.
func fig15Gates(r Fig15Result) []Gate {
	under := 0
	for _, row := range r.Rows {
		if row.BISP < row.Floor {
			under++
		}
	}
	return []Gate{
		NewGate("mean_normalized", r.Average, "<", 1),
		NewGate("bisp_below_floor", float64(under), "==", 0),
		NewGate("paper_distance", math.Abs(r.Average-0.772), "<=", fig15PaperBound),
	}
}
