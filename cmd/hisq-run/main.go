// Command hisq-run executes one or two HISQ programs on simulated
// controllers connected by the two-board fabric of §6.3 and prints the TELF
// timing log — the software analogue of watching board outputs on an
// oscilloscope (Fig. 13).
//
// Usage:
//
//	hisq-run prog0.hisq [prog1.hisq] [-cycles N]
//
// Exit status 1: a program does not assemble or names a sync, send or recv
// address the fabric lacks, or a board stopped on a runtime error (the log
// is printed first). 2: bad usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dhisq/internal/core"
	"dhisq/internal/isa"
	"dhisq/internal/network"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hisq-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cycles := fs.Int64("cycles", 1_000_000, "simulation deadline in cycles")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil || fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: hisq-run [-cycles N] prog0.hisq [prog1.hisq]")
		return 2
	}
	if err := simulate(fs.Args(), *cycles, stdout); err != nil {
		fmt.Fprintln(stderr, "hisq-run:", err)
		return 1
	}
	return 0
}

func simulate(paths []string, cycles int64, stdout io.Writer) error {
	eng := sim.NewEngine()
	log := telf.NewLog()
	cfg := network.DefaultConfig(2)
	cfg.MeshW, cfg.MeshH = 2, 1
	topo, err := network.NewTopology(cfg)
	if err != nil {
		return err
	}
	fab := network.NewFabric(eng, topo, log)

	ctrls := make([]*core.Controller, len(paths))
	for i, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		p, err := isa.Assemble(string(src))
		if err != nil {
			return err
		}
		if err := checkAddresses(i, p, topo); err != nil {
			return err
		}
		ctrls[i] = core.NewController(eng, core.Config{ID: i, Ports: 28}, fab, nil, log)
		fab.Attach(i, ctrls[i])
		ctrls[i].Load(p)
	}
	if len(ctrls) == 1 {
		// A lone board still needs a fabric endpoint at address 1.
		idle := core.NewController(eng, core.Config{ID: 1, Ports: 28}, fab, nil, log)
		idle.Load(&isa.Program{Instrs: []isa.Instr{{Op: isa.OpHALT}}})
		fab.Attach(1, idle)
		idle.Start()
	}
	for _, c := range ctrls {
		c.Start()
	}
	eng.RunUntil(cycles)

	fmt.Fprint(stdout, log.Text())
	var failed error
	for i, c := range ctrls {
		status := "halted"
		if !c.Halted() {
			status = "running/" + c.Blocked().String()
		}
		fmt.Fprintf(stdout, "# board %d: %s at pc=%d, end=%d cycles (%d ns), %d instrs, %d commits, %d violations\n",
			i, status, c.PC(), c.EndTime(), sim.Nanoseconds(c.EndTime()),
			c.Stats.Instrs, c.Stats.Commits, c.Stats.Violations)
		if err := c.Err(); err != nil {
			fmt.Fprintf(stdout, "# board %d error: %v\n", i, err)
			failed = fmt.Errorf("board %d stopped on a runtime error: %w", i, err)
		}
	}
	return failed
}

// checkAddresses refuses a sync target that is no node of topo, and a send
// or recv peer that is no controller: the fabric indexes its tables by them.
func checkAddresses(board int, p *isa.Program, topo *network.Topology) error {
	nodes := map[isa.Op]int{isa.OpSYNC: topo.N + topo.NumRouters, isa.OpSEND: topo.N, isa.OpRECV: topo.N}
	for pc, in := range p.Instrs {
		if n, ok := nodes[in.Op]; ok && (in.Imm < 0 || int(in.Imm) >= n) {
			return fmt.Errorf("board %d pc=%d: %s address %d is not one of nodes 0..%d", board, pc, in.Op, in.Imm, n-1)
		}
	}
	return nil
}
