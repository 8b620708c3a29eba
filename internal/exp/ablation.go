package exp

import (
	"fmt"

	"dhisq/internal/machine"
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
	Qubits       int
	Advance      sim.Time // makespan with Fig. 6 booking advance
	NoAdvance    sim.Time // makespan with sync immediately before the commit
	AdvanceStall sim.Time // cycles the TCU timers spent paused (advance)
	NoAdvStall   sim.Time
	Saved        float64 // 1 - Advance/NoAdvance
}

// AblationSyncAdvance runs the comparison on the named benchmarks (nil =
// the qft family, the most sync-dense workloads). Every row shares one
// divisor, scaleDiv capped so the smallest benchmark keeps at least the
// 8 qubits BuildScaled clamps to: uncapped, ÷16 would build qft_n30 and
// qft_n100 as the same 8-qubit circuit. The rows' Qubits say what ran.
func AblationSyncAdvance(names []string, scaleDiv int, seed int64) ([]AblationRow, error) {
	if names == nil {
		names = []string{"qft_n30", "qft_n100"}
	}
	div := max(scaleDiv, 1)
	for i := 0; i < len(names) && div > 1; i++ {
		full, err := workloads.Build(names[i])
		if err != nil {
			return nil, err
		}
		div = min(div, max(full.Qubits/8, 1))
	}
	var rows []AblationRow
	for _, name := range names {
		b, err := workloads.BuildScaled(name, div)
		if err != nil {
			return nil, err
		}
		run := func(advance bool) (machine.Result, error) {
			cfg := cellConfig(b.Qubits, seed, 0)
			cfg.Padded = !advance
			res, err := runChecked(b, cfg)
			if err != nil {
				return res, fmt.Errorf("%s advance=%v: %w", name, advance, err)
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
			Qubits:       b.Qubits,
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
	{"qubits", func(r AblationRow) string { return fmt.Sprint(r.Qubits) }},
	{"advance(cy)", func(r AblationRow) string { return fmt.Sprint(r.Advance) }},
	{"no-advance(cy)", func(r AblationRow) string { return fmt.Sprint(r.NoAdvance) }},
	{"saved", func(r AblationRow) string { return fmt.Sprintf("%.1f%%", 100*r.Saved) }},
}

// ablationGates holds the booking-in-advance claim (§4.2 vs §2.1.3):
// booking the sync ahead hides its round trip instead of padding the
// timeline.
//
//   - advance_never_slower: on every row the advance makespan is at most
//     the no-advance one.
//   - distinct_circuits: no two rows have the same qubit count, so the
//     rows are different circuits, not one circuit counted twice.
func ablationGates(rows []AblationRow) []Gate {
	slower, repeats := 0, 0
	seen := map[int]bool{}
	for _, r := range rows {
		if r.Advance > r.NoAdvance {
			slower++
		}
		if seen[r.Qubits] {
			repeats++
		}
		seen[r.Qubits] = true
	}
	return []Gate{
		NewGate("advance_never_slower", float64(slower), "==", 0),
		NewGate("distinct_circuits", float64(repeats), "==", 0),
	}
}
