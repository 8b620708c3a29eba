package exp

import (
	"fmt"

	"dhisq/internal/machine"
	"dhisq/internal/runner"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// AblationRow compares BISP's booking-in-advance placement (Fig. 6) against
// the as-needed scheme that inserts the sync immediately before the
// synchronized instruction (QubiC 2.0 style, §2.1.3) — the paper's claim
// that advancing the booking hides the sync round-trip, isolated from every
// other difference: same programs, same fabric, same windows.
type AblationRow struct {
	Name         string
	Advance      sim.Time // makespan with Fig. 6 booking advance
	NoAdvance    sim.Time // makespan with sync immediately before the commit
	AdvanceStall sim.Time // cycles the TCU timers spent paused (advance)
	NoAdvStall   sim.Time
	Saved        float64 // 1 - Advance/NoAdvance
}

// AblationSyncAdvance runs the comparison on the named benchmarks (nil =
// the qft family, the most sync-dense workloads).
func AblationSyncAdvance(names []string, scaleDiv int, seed int64) ([]AblationRow, error) {
	if names == nil {
		names = []string{"qft_n30", "qft_n100"}
	}
	if scaleDiv <= 0 {
		scaleDiv = 1
	}
	var rows []AblationRow
	for _, name := range names {
		b, err := workloads.BuildScaled(name, scaleDiv)
		if err != nil {
			return nil, err
		}
		run := func(advance bool) (machine.Result, error) {
			cfg := machine.DefaultConfig(b.Qubits)
			cfg.Backend = machine.BackendSeeded
			cfg.Seed = seed
			if !advance {
				cfg.Schedule = "padded"
			}
			// One shot at the base seed matches the pre-runner behaviour.
			set, err := runner.Run(runner.Spec{
				Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH,
				Mapping: b.Mapping, Cfg: cfg,
			}, 1, 1)
			if err != nil {
				return machine.Result{}, err
			}
			res := set.Shots[0].Result
			if res.Misalignments != 0 || res.Violations != 0 {
				return machine.Result{}, fmt.Errorf("%s advance=%v: invariants broken", name, advance)
			}
			return res, nil
		}
		adv, err := run(true)
		if err != nil {
			return nil, err
		}
		noadv, err := run(false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:         b.Name,
			Advance:      adv.Makespan,
			NoAdvance:    noadv.Makespan,
			AdvanceStall: adv.SyncStall,
			NoAdvStall:   noadv.SyncStall,
			Saved:        1 - float64(adv.Makespan)/float64(noadv.Makespan),
		})
	}
	return rows, nil
}

var ablationCols = []column[AblationRow]{
	{"benchmark", func(r AblationRow) string { return r.Name }},
	{"advance(cy)", func(r AblationRow) string { return fmt.Sprint(r.Advance) }},
	{"no-advance(cy)", func(r AblationRow) string { return fmt.Sprint(r.NoAdvance) }},
	{"saved", func(r AblationRow) string { return fmt.Sprintf("%.1f%%", 100*r.Saved) }},
}
