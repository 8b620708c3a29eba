// Command dhisq-bench regenerates the paper's tables and figures and the
// sweeps grown on top of them. Every experiment prints its table and one
// line per gate, then writes BENCH_<exp>.json into -out in the one
// envelope ({exp, meta, rows, gates}; EXPERIMENTS.md "Reading a BENCH
// file") — also when a gate fails, so a red run leaves its numbers behind.
// The exit status is 1 iff a gate failed or an experiment could not run.
//
// Usage:
//
//	dhisq-bench -exp NAME|all
//	            [-scale N] [-seed S] [-workers W] [-points N] [-out DIR]
//	            [-topo mesh|torus|tree|all] [-link-bw N] [-placement P|all]
//
// Experiment names come from the one registry (internal/exp's, plus the
// sweep experiment this command owns); the -exp flag's help text
// enumerates them and an unknown name lists every valid one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dhisq/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], experiments(), os.Stdout, os.Stderr)) }

// experiments is the command's registry: internal/exp's, then sweep.
func experiments() []exp.Experiment {
	return append(exp.Registry(), exp.Experiment{Name: "sweep", Run: runSweep})
}

// run is the whole command: parse args, run the selected experiments of
// registry, print, write the envelopes, and return the exit status.
func run(args []string, registry []exp.Experiment, stdout, stderr io.Writer) int {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	list := strings.Join(names, ", ")

	fs := flag.NewFlagSet("dhisq-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var a exp.Args
	fs.IntVar(&a.Scale, "scale", 1, "divide Fig. 15 benchmark sizes by this factor")
	fs.Int64Var(&a.Seed, "seed", 1, "measurement outcome seed")
	fs.IntVar(&a.Workers, "workers", 4, "worker replicas for the sweep experiment (0 = GOMAXPROCS)")
	fs.IntVar(&a.Points, "points", 64, "parameter points for the sweep experiment")
	fs.StringVar(&a.Topo, "topo", "all", "fabric and collective topology: mesh, torus, tree, or all")
	fs.Int64Var(&a.LinkBW, "link-bw", 0, "link bandwidth as cycles per message (0 = each experiment's own sweep)")
	fs.StringVar(&a.Placement, "placement", "all", "placement experiment policy (all = rowmajor vs interaction)")
	outDir := fs.String("out", ".", "directory for BENCH_*.json files")
	which := fs.String("exp", "all", "experiment: "+list+", or all")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	// meta.flags records these as given, so a value an experiment would clamp
	// is refused here rather than stamped on rows it was not measured at.
	if a.LinkBW < 0 || a.Scale < 1 || a.Points < 2 || a.Workers < 0 {
		fmt.Fprintln(stderr, "dhisq-bench: want -link-bw >= 0, -scale >= 1, -points >= 2 and -workers >= 0")
		fs.Usage()
		return 2
	}

	known := *which == "all"
	for _, n := range names {
		known = known || n == *which
	}
	if !known {
		fmt.Fprintf(stderr, "dhisq-bench: unknown experiment %q (want %s, or all)\n", *which, list)
		return 2
	}
	meta := exp.CollectMeta(a)
	status := 0
	for _, e := range registry {
		if *which != "all" && *which != e.Name {
			continue
		}
		fmt.Fprintf(stdout, "=== %s ===\n", e.Name)
		rep, err := e.Run(a)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		rep.Exp, rep.Meta = e.Name, meta
		fmt.Fprint(stdout, rep.Text)
		for _, g := range rep.Gates {
			fmt.Fprintln(stdout, g)
			if !g.Pass {
				status = 1
			}
		}
		path, err := rep.Write(*outDir)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
		fmt.Fprintln(stdout)
	}
	return status
}
