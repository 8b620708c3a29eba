// Command benchmark is the one end-to-end benchmark of dhisq-serve: it
// builds the daemon, boots it as a child process, drives it over HTTP with
// generated jobs, checks every answer, and reports what a user would see
// (end-to-end metrics) and, in a traced pass, where the time goes layer by
// layer. README.md in this directory has the workloads and the metrics.
//
// It is a module of its own inside the repository and runs from anywhere
// at or below the repository root:
//
//	go run -C benchmark . -seed 1                        all workloads, untraced then traced
//	go run -C benchmark . -workload warm_open -trace 1   one pass of one workload
//	go run -C benchmark . -compare a.json b.json         two results.json files side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one pass of this workload and print one result line (default: every workload, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of one measured window")
	trace := flag.Int("trace", 0, "with -workload: 1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	cmp := flag.Bool("compare", false, "compare two results.json files given as arguments")
	update := flag.Bool("update-golden", false, "rewrite golden.json from this run (all workloads, seed 1)")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results.json files"))
		}
		if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	// What the benchmark builds and scratches goes under <repo>/.bench_build,
	// what it reports under <repo>/benchmark/out.
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	o.root = root
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fatal(err)
	}
	t0 := time.Now()
	if o.daemonBin, err = buildDaemon(root, build); err != nil {
		fatal(err)
	}
	o.buildS = time.Since(t0).Seconds()
	if o.workDir, err = os.MkdirTemp(build, "run-"); err != nil {
		fatal(err)
	}
	o.sizes = fullSizes
	o.setupReps = 5
	o.outDir = filepath.Join(root, "benchmark", "out")
	var g *golden
	if !*update {
		if g, err = readGolden(filepath.Join(root, "benchmark", "golden.json")); err != nil {
			os.RemoveAll(o.workDir)
			fatal(err)
		}
		if g.Seed == o.seed {
			o.golden = g
		}
	}

	code := run(o, *trace != 0, *update)
	os.RemoveAll(o.workDir)
	os.Exit(code)
}

// run executes the requested passes and returns the exit code.
func run(o options, trace, update bool) int {
	env := &envelope{Meta: newMeta(o)}
	single := o.workload
	failed := 0
	pass := func(name string, trace bool) *report {
		o.workload, o.trace = name, trace
		rep, err := runWorkload(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			failed++
			return nil
		}
		printReport(rep, trace)
		env.add(rep)
		failed += rep.Failed
		return rep
	}

	var last *report
	if single != "" {
		last = pass(single, trace)
	} else {
		for _, name := range workloadNames {
			pass(name, false)
			pass(name, true)
		}
	}
	if single == "" {
		// The envelope is the record of a whole run; one pass of one
		// workload has its result line.
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		} else if err := env.write(filepath.Join(o.outDir, "results.json")); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
	}
	if update && failed == 0 && single == "" {
		if err := writeGolden(filepath.Join(o.root, "benchmark", "golden.json"), o.seed, env); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if last != nil {
		// The driver's contract: one JSON object as the last line.
		line, _ := json.Marshal(map[string]any{
			"correct": last.Failed == 0, "attempted": last.Attempted,
			"failed": last.Failed, "metrics": last.Metrics,
		})
		fmt.Println(string(line))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// printReport prints one pass: rounds, every metric by name with its unit,
// and any failures.
func printReport(rep *report, trace bool) {
	kind, table := "end-to-end", endToEnd
	if trace {
		kind, table = "per-layer", perLayer
	}
	fmt.Printf("== %s (%s)\n", rep.Workload, kind)
	for k, r := range rep.Rounds {
		fmt.Printf("round %d: sent %d succeeded %d failed %d in %.3f s = %.2f jobs/s at host speed %.3f\n", k+1, r.Sent, r.Succeeded, r.Failed, r.Seconds, r.JobsPerS, r.HostSpeed)
	}
	for _, def := range table {
		if v, ok := rep.Metrics[def.Name]; ok {
			fmt.Printf("%-32s %16.4f %s\n", def.Name, v.Value, v.Unit)
		}
	}
	for _, def := range perLayer {
		if v, ok := rep.Wire[def.Name]; ok {
			fmt.Printf("%-32s %16.4f %s (whole window, no bound)\n", def.Name, v.Value, v.Unit)
		}
	}
	fmt.Printf("%-32s %16.4f ratio (%d of %d, %d timed jobs)\n", "failed_share", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted, rep.Samples)
	for fam, m := range rep.Families {
		for _, name := range []string{"service.job_us", "circuit.parse_us", "artifact.key_us", "machine.run_us", "chip.kernel_replay_us"} {
			if v, ok := m[name]; ok {
				fmt.Printf("  %-12s %-24s %14.2f %s\n", fam, name, v.Value, v.Unit)
			}
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
}

// findRoot walks up from the working directory to the repository that
// holds this benchmark: the first directory with both cmd/dhisq-serve and
// benchmark/golden.json in it.
func findRoot() (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for dir := cwd; ; {
		_, errServe := os.Stat(filepath.Join(dir, "cmd", "dhisq-serve"))
		_, errGolden := os.Stat(filepath.Join(dir, "benchmark", "golden.json"))
		if errServe == nil && errGolden == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository with cmd/dhisq-serve and benchmark/ at or above %s", cwd)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
