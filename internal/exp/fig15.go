package exp

import (
	"fmt"
	"math"

	"dhisq/internal/baseline"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// Fig15Row is one bar of Figure 15: the end-to-end runtime of a dynamic-
// circuit benchmark under BISP and under every lock-step comparator.
type Fig15Row struct {
	Name     string
	Qubits   int
	BISP     sim.Time    // makespan, cycles
	Lockstep []Fig15Cell // one per baseline.Comparators row, in its order
	// Floor is the circuit's depth under the paper's durations
	// (circuit.Depth). That is the all-branch depth, not a floor under the
	// shot that ran: a shot that skips a conditioned op can finish sooner.
	// ROADMAP item 11 replaces it with the taken-branch floor.
	Floor     sim.Time
	Feedbacks int      // conditioned operations
	Syncs     sim.Time // total BISP sync stall cycles
}

// Fig15Cell is one comparator's lock-step run of a benchmark.
type Fig15Cell struct {
	Comparator string
	Makespan   sim.Time
	Normalized float64 // BISP / Makespan (the comparator = 1.0)
}

// Fig15Options parameterizes the sweep.
type Fig15Options struct {
	// ScaleDiv divides every benchmark's qubit count (<= 1 = the paper's
	// full sizes; tests use 8-16 for speed).
	ScaleDiv int
	// Seed is the base seed of each benchmark's shot and of the outcome
	// source its lock-step replays share, taken as given: 0 is a seed like
	// any other, as in every other seeded entry point of the package.
	Seed int64
	// Names restricts the run (nil = the full Figure 15 suite).
	Names []string
}

// Fig15Result is the full figure.
type Fig15Result struct {
	Rows []Fig15Row
	Mean map[string]float64 // mean Normalized by comparator (paper: 0.772)
}

// Fig15Runtime reproduces Figure 15: every benchmark compiled and executed
// on the Distributed-HISQ machine (BISP), then replayed under the lock-step
// model with the same seeded outcome source, so both take identical
// branches.
func Fig15Runtime(opt Fig15Options) (Fig15Result, error) {
	opt.ScaleDiv = max(opt.ScaleDiv, 1)
	names := opt.Names
	if names == nil {
		names = workloads.Fig15Names()
	}
	out := Fig15Result{Mean: map[string]float64{}}
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
		for _, c := range row.Lockstep {
			out.Mean[c.Comparator] += c.Normalized
		}
	}
	for name := range out.Mean {
		out.Mean[name] /= float64(len(out.Rows))
	}
	return out, nil
}

func fig15One(b workloads.Benchmark, seed int64) (Fig15Row, error) {
	cfg := cellConfig(b.Qubits, seed, 0)
	// Shot 0 runs with the base seed, so the lock-step replay below takes
	// identical branches.
	res, err := runChecked(b, cfg)
	if err != nil {
		return Fig15Row{}, err
	}

	row := Fig15Row{
		Name:      b.Name,
		Qubits:    b.Qubits,
		BISP:      res.Makespan,
		Floor:     sim.Time(b.Circuit.Depth(circuit.PaperDurations())),
		Feedbacks: b.Circuit.CountStats().Feedforward,
		Syncs:     res.SyncStall,
	}
	for _, cmp := range baseline.Comparators {
		lres, err := baseline.Run(b.Circuit, cmp, chip.NewSeeded(seed))
		if err != nil {
			return Fig15Row{}, err
		}
		norm, err := baseline.Compare(res.Makespan, lres.Makespan)
		if err != nil {
			return Fig15Row{}, err
		}
		row.Lockstep = append(row.Lockstep, Fig15Cell{cmp.Name, lres.Makespan, norm})
	}
	return row, nil
}

// fig15Cols is the benchmark columns, then a makespan and ratio pair per
// comparator.
var fig15Cols = func() []column[Fig15Row] {
	cols := []column[Fig15Row]{
		{"benchmark", func(r Fig15Row) string { return r.Name }},
		{"qubits", func(r Fig15Row) string { return fmt.Sprint(r.Qubits) }},
		{"floor(cy)", func(r Fig15Row) string { return fmt.Sprint(r.Floor) }},
		{"bisp(cy)", func(r Fig15Row) string { return fmt.Sprint(r.BISP) }},
	}
	for i, cmp := range baseline.Comparators {
		cols = append(cols,
			column[Fig15Row]{cmp.Name + "(cy)", func(r Fig15Row) string { return fmt.Sprint(r.Lockstep[i].Makespan) }},
			column[Fig15Row]{"bisp/" + cmp.Name, func(r Fig15Row) string { return fmt.Sprintf("%.3f", r.Lockstep[i].Normalized) }})
	}
	return cols
}()

// fig15Text is the table and each comparator's mean.
func fig15Text(r Fig15Result) string {
	s := renderRows(r.Rows, fig15Cols) + "mean normalized:"
	for _, cmp := range baseline.Comparators {
		s += fmt.Sprintf(" %s %.3f", cmp.Name, r.Mean[cmp.Name])
	}
	return s + "; paper: 0.772 (22.8% reduction)\n"
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
//   - mean_normalized: the mean BISP / lock-step ratio against
//     baseline.Hub is below 1.
//   - bisp_below_floor: no row's BISP makespan is below its floor, the
//     circuit's all-branch depth. Control overhead keeps every row above
//     it today, but a skipped branch could legitimately cross it, so a
//     break is not by itself a timing-model bug (ROADMAP item 11).
//   - lockstep_below_floor: no comparator's makespan is below its row's
//     floor either.
//   - paper_distance: |hub mean − 0.772| is within fig15PaperBound.
func fig15Gates(r Fig15Result) []Gate {
	var under, lockUnder float64
	for _, row := range r.Rows {
		under += Truth(row.BISP < row.Floor)
		for _, c := range row.Lockstep {
			lockUnder += Truth(c.Makespan < row.Floor)
		}
	}
	mean := r.Mean[baseline.Hub.Name]
	return []Gate{
		NewGate("mean_normalized", mean, "<", 1),
		NewGate("bisp_below_floor", under, "==", 0),
		NewGate("lockstep_below_floor", lockUnder, "==", 0),
		NewGate("paper_distance", math.Abs(mean-0.772), "<=", fig15PaperBound),
	}
}
