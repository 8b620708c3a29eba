// Long-range CNOT (the paper's Figure 14): a CNOT between two distant
// qubits implemented as a constant-depth dynamic circuit — Bell pairs on a
// dedicated ancilla rail, one layer of entangling gates, parallel
// measurements, and parity-conditioned Pauli corrections that travel as
// real send/recv messages between controllers. The example contrasts it
// with SWAP routing, whose depth grows linearly with distance.
package main

import (
	"fmt"
	"log"

	"dhisq"
)

func run(dist int) (dynamic, swapped int64) {
	// Dynamic version: dual-rail embedding converts the logical CNOT.
	logical := dhisq.NewCircuit(dist + 1)
	logical.X(0)
	logical.CNOT(0, dist)
	logical.MeasureInto(dist, 0)
	phys, err := dhisq.DualRail{}.Embed(logical)
	if err != nil {
		log.Fatal(err)
	}
	cfg := dhisq.DefaultMachineConfig(phys.NumQubits)
	cfg.Backend = dhisq.BackendStabilizer
	cfg.Seed = 7
	w := (phys.NumQubits + 1) / 2
	res, m, err := dhisq.Run(phys, w, 2, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if res.Misalignments != 0 {
		log.Fatalf("co-commitment broken at distance %d", dist)
	}
	// Verify the CNOT fired: bit 0 lives at address 0 of its owner.
	owner := m.Loaded().BitOwner[0]
	if m.Ctrls[owner].ReadMem(0, 1)[0]&1 != 1 {
		log.Fatalf("distance %d: target did not flip", dist)
	}

	// Static alternative: SWAP the control next to the target and back.
	sw := dhisq.NewCircuit(2 * (dist + 1))
	sw.X(0)
	chain := make([]int, dist-1)
	for i := range chain {
		chain[i] = i + 1
	}
	sw.SwapRouteCNOT(0, dist, chain)
	sw.MeasureInto(dist, 0)
	res2, _, err := dhisq.Run(sw, w, 2, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return int64(res.Makespan), int64(res2.Makespan)
}

func main() {
	fmt.Println("distance  dynamic(cy)  swap-routed(cy)")
	for _, d := range []int{4, 8, 16, 32} {
		dyn, sw := run(d)
		fmt.Printf("%8d  %11d  %15d\n", d, dyn, sw)
	}
	fmt.Println("\nThe dynamic construction's time stays nearly flat with distance")
	fmt.Println("(only classical message latency grows); SWAP routing grows linearly.")
}
