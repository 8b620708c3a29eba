package exp

import (
	"fmt"
	"slices"

	"dhisq/internal/core"
	"dhisq/internal/isa"
	"dhisq/internal/network"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// Fig12ControlBoard is the control-board program of Figure 12, with board
// addresses mapped to our 0-based controller ids (control = 0, readout = 1).
// The waitr $1 makes its timing non-deterministic from the readout board's
// perspective — the as-needed synchronization scenario of §6.3.
const Fig12ControlBoard = `
addi $2,$0,120
addi $1,$0,0
loop:
waiti 1
cw.i.i 21,2
addi $1,$1,40
cw.i.i 20,2
waitr $1
sync 1
waiti 8
cw.i.i 7,1
waiti 50
bne $1,$2,loop
halt
`

// Fig12ReadoutBoard is the readout-board program of Figure 12 (sync target
// mapped to controller 0). The paper's version loops forever; ours runs the
// three inner-loop iterations of the control board and halts, which keeps
// the simulation finite without changing any timing.
const Fig12ReadoutBoard = `
addi $3,$0,3
loop:
waiti 2
sync 0
waiti 6
waiti 57
cw.i.i 5,1
addi $4,$4,1
bne $4,$3,loop
halt
`

// Fig13Result captures the §6.3 electronics-level verification: the commit
// times of the highlighted instruction pair across inner-loop iterations.
type Fig13Result struct {
	ControlCommits []sim.Time // cw.i.i 7,1 on the control board (yellow)
	ReadoutCommits []sim.Time // cw.i.i 5,1 on the readout board (blue)
	Deltas         []int64    // readout - control per iteration
	DeltaConstant  bool       // cycle-level sync: the offset never drifts
	SweepDeltas    []int64    // growth of the control board period per iteration
	// Violations counts codewords either board queued past their commit
	// time at or after the first sync_done.
	Violations int
}

// Fig13SyncWaveforms runs the two Figure 12 programs on a two-board fabric
// and extracts the waveform alignment of Figure 13. The synchronized pair
// must commit with a constant mutual offset (55 cycles: the deliberate
// 8-vs-63 trigger-delay compensation) in every iteration even though the
// control board's progress shifts by 40 cycles per iteration.
func Fig13SyncWaveforms() (Fig13Result, error) {
	eng := sim.NewEngine()
	log := telf.NewLog()
	netCfg := network.DefaultConfig(2)
	netCfg.MeshW, netCfg.MeshH = 2, 1
	topo, err := network.NewTopology(netCfg)
	if err != nil {
		return Fig13Result{}, err
	}
	fab := network.NewFabric(eng, topo, log)
	ctrlBoard := core.NewController(eng, core.Config{ID: 0, Ports: 28}, fab, nil, log)
	roBoard := core.NewController(eng, core.Config{ID: 1, Ports: 8}, fab, nil, log)
	fab.Attach(0, ctrlBoard)
	fab.Attach(1, roBoard)
	ctrlBoard.Load(isa.MustAssemble(Fig12ControlBoard))
	roBoard.Load(isa.MustAssemble(Fig12ReadoutBoard))
	ctrlBoard.Start()
	roBoard.Start()
	eng.RunUntil(100_000)
	if !ctrlBoard.Halted() || !roBoard.Halted() {
		return Fig13Result{}, fmt.Errorf("fig13: boards wedged (ctrl=%v ro=%v)",
			ctrlBoard.Blocked(), roBoard.Blocked())
	}

	var res Fig13Result
	for _, e := range log.Commits(0, 7) {
		res.ControlCommits = append(res.ControlCommits, e.Time)
	}
	for _, e := range log.Commits(1, 5) {
		res.ReadoutCommits = append(res.ReadoutCommits, e.Time)
	}
	res.Deltas = telf.CheckAlignment(log, 0, 7, 1, 5).Deltas
	res.DeltaConstant = len(res.Deltas) > 0 && slices.Min(res.Deltas) == slices.Max(res.Deltas)
	for i := 1; i < len(res.ControlCommits); i++ {
		res.SweepDeltas = append(res.SweepDeltas, res.ControlCommits[i]-res.ControlCommits[i-1])
	}
	synced := false
	for _, e := range log.Events {
		synced = synced || e.Kind == telf.SyncDone
		if synced && e.Kind == telf.Violation {
			res.Violations++
		}
	}
	return res, nil
}

// fig13Text is one table row per inner-loop iteration, then the control
// board's period growth.
func fig13Text(r Fig13Result) string {
	cols := []column[int]{
		{"iter", func(i int) string { return fmt.Sprint(i + 1) }},
		{"control cw7 (cy)", func(i int) string { return fmt.Sprint(r.ControlCommits[i]) }},
		{"readout cw5 (cy)", func(i int) string { return fmt.Sprint(r.ReadoutCommits[i]) }},
		{"delta", func(i int) string { return fmt.Sprint(r.Deltas[i]) }},
	}
	iters := make([]int, len(r.Deltas))
	for i := range iters {
		iters[i] = i
	}
	return renderRows(iters, cols) + fmt.Sprintf("control-period growth: %v cycles\n", r.SweepDeltas)
}

// fig13Gates holds the §6.3 electronics-level claim: synchronization is
// cycle-exact however the control board's progress varies.
//
//   - iterations: the synchronized pair committed in all three iterations.
//   - delta_55: in every iteration the readout board commits exactly 55
//     cycles after the control board (the deliberate 8-vs-63 trigger-delay
//     compensation), so the offset never drifts.
//   - violations_after_sync: no codeword misses its commit time once the
//     first sync has resolved.
func fig13Gates(r Fig13Result) []Gate {
	off := 0
	for _, d := range r.Deltas {
		if d != 55 {
			off++
		}
	}
	return []Gate{
		NewGate("iterations", float64(len(r.Deltas)), "==", 3),
		NewGate("delta_55", float64(off), "==", 0),
		NewGate("violations_after_sync", float64(r.Violations), "==", 0),
	}
}
