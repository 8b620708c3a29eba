// Command dhisq-sim compiles an OpenQASM dynamic circuit (or a named
// benchmark) through the full Distributed-HISQ stack and executes it on the
// simulated control fabric, reporting makespan and invariant checks. With
// -shots > 1 the compiled program is run repeatedly through the shot
// subsystem (internal/runner): compiled once, reset per shot, fanned out
// across -workers machine replicas, with a deterministic merged histogram.
//
// With -serve URL the circuit is not run in-process: it is submitted as a
// job to a running dhisq-serve daemon, which compiles it at most once (the
// shared artifact cache) and batches it with other jobs for the same
// circuit; dhisq-sim long-polls the job and prints its histogram.
//
// The job is a service.Submission in both modes: its per-job option flags
// (-topo -link-bw -router-ports -placement -schedule -collective -chips
// -epr-latency) are declared by service.Request.RegisterFlags, the struct
// marshals as the POST body, and service.Resolve validates it — locally
// before a local run, and locally again before anything is posted — so the
// two modes accept, reject and run the same thing.
//
// Usage:
//
//	dhisq-sim -qasm file.qasm            run a circuit from OpenQASM
//	dhisq-sim -bench qft_n30 [-scale N]  run a Figure 15 benchmark
//	dhisq-sim -shots 100 -workers 4 ...  multi-shot execution
//	dhisq-sim -topo torus -link-bw 4 ..  alternate topology + finite link bandwidth
//	dhisq-sim -placement interaction ..  interaction-aware qubit placement
//	dhisq-sim -schedule padded ..        ablate advance-booked scheduling
//	dhisq-sim -bind theta0=0.5,phi=1 ..  bind a parameterized circuit's angles
//	dhisq-sim -serve http://host:8080 .. submit to a dhisq-serve daemon
//	dhisq-sim -list                      list benchmark names
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dhisq/internal/runner"
	"dhisq/internal/service"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// options is dhisq-sim's flag set. The job itself is a service.Submission:
// the same struct is the POST body in -serve mode and what service.Resolve
// reads in local mode, and its per-job option flags are declared once, by
// service.Request.RegisterFlags.
type options struct {
	sub               service.Submission
	qasm, bind, serve string
	workers           int
	list              bool
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.qasm, "qasm", "", "OpenQASM 2.0 file to run")
	fs.StringVar(&o.sub.Bench, "bench", "", "Figure 15 benchmark name")
	fs.IntVar(&o.sub.Scale, "scale", 1, "benchmark size divisor")
	fs.Int64Var(&o.sub.Seed, "seed", 1, "measurement outcome base seed")
	fs.IntVar(&o.sub.Shots, "shots", 1, "number of repetitions (compile once, reset per shot)")
	fs.IntVar(&o.workers, "workers", 0, "machine replicas running shots in parallel (0 = GOMAXPROCS)")
	o.sub.RegisterFlags(fs)
	fs.StringVar(&o.bind, "bind", "", "bind symbolic circuit parameters, e.g. -bind theta0=0.5,theta1=1.2")
	fs.StringVar(&o.serve, "serve", "", "dhisq-serve base URL: submit as a job instead of running in-process")
	fs.BoolVar(&o.list, "list", false, "list benchmark names")
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	if o.list {
		for _, n := range workloads.Fig15Names() {
			fmt.Println(n)
		}
		return
	}
	if o.qasm == "" && o.sub.Bench == "" {
		fmt.Fprintln(os.Stderr, "usage: dhisq-sim -qasm file | -bench name [-scale N] [-shots N -workers W] [-serve URL] | -list")
		os.Exit(2)
	}
	var err error
	o.sub.Params, err = parseBind(o.bind)
	must(err)
	if o.qasm != "" {
		data, err := os.ReadFile(o.qasm)
		must(err)
		o.sub.QASM = string(data)
	}

	start := time.Now()
	if o.serve != "" {
		job, err := submitRemote(o.serve, o.sub)
		must(err)
		printJob(job, time.Since(start))
		return
	}
	spec, set, err := runLocal(o.sub, o.workers)
	must(err)
	if !printRun(spec, set, time.Since(start)) {
		os.Exit(1)
	}
}

// runLocal is the in-process mode: the submission resolves through the
// service's own admission (service.Resolve — the checks, mesh and machine
// config a daemon would give it) and runs on the shot runner directly.
func runLocal(sub service.Submission, workers int) (runner.Spec, *runner.ShotSet, error) {
	adm, err := resolve(sub)
	if err != nil {
		return runner.Spec{}, nil, err
	}
	spec := adm.Spec
	if adm.Req.Params != nil {
		if spec.Circuit, err = spec.Circuit.Bind(adm.Req.Params); err != nil {
			return runner.Spec{}, nil, err
		}
	}
	set, err := runner.Run(spec, adm.Req.Shots, workers)
	return spec, set, err
}

// resolve is the admission both modes run before anything else happens:
// build the circuit, then service.Resolve — the daemon's own checks.
func resolve(sub service.Submission) (service.Admission, error) {
	req, err := sub.Build()
	if err != nil {
		return service.Admission{}, err
	}
	return service.Resolve(req)
}

// printRun reports a local run and whether its timing invariants held.
func printRun(spec runner.Spec, set *runner.ShotSet, elapsed time.Duration) bool {
	c, cfg := spec.Circuit, spec.Cfg
	n, root, err := cfg.Net.Shape()
	must(err)
	res := set.Shots[0].Result
	st := c.CountStats()
	fmt.Printf("qubits:        %d (%s %dx%d, %d routers)\n", c.NumQubits, cfg.Net.Topology, spec.MeshW, spec.MeshH, root-n+1)
	fmt.Printf("circuit:       %d 1q, %d 2q, %d measurements, %d feed-forward ops\n",
		st.OneQubit, st.TwoQubit, st.Measurements, st.Feedforward)
	fmt.Printf("makespan:      %d cycles (%d ns)\n", res.Makespan, sim.Nanoseconds(res.Makespan))
	fmt.Printf("instructions:  %d executed, %d codeword commits\n", res.Instructions, res.Commits)
	fmt.Printf("chip:          %d gates, %d measurements applied\n", res.Gates, res.Measurements)
	if cfg.Chips > 1 {
		fmt.Printf("chips:         %d, %d EPR pairs generated (shot 0)\n", cfg.Chips, res.EPRPairs)
	}
	fmt.Printf("sync stalls:   %d cycles total\n", res.SyncStall)
	if res.Net.Enabled {
		fmt.Printf("congestion:    %d stall cycles, max queue %d, busiest port %.1f%% utilized\n",
			res.Net.TotalStall(), res.Net.MaxQueue(), 100*res.RouterUtilization)
	}
	if cfg.Collective != "" {
		fmt.Printf("collective:    digest %#x in %d cycles (%s schedule, %d ops)\n",
			res.CollectiveDigest, res.CollectiveCycles, cfg.Collective, res.Net.CollectiveOps)
	}

	var violations, misalignments, overlaps uint64
	for _, s := range set.Shots {
		violations += s.Result.Violations
		misalignments += uint64(s.Result.Misalignments)
		overlaps += uint64(s.Result.Overlaps)
	}
	fmt.Printf("invariants:    %d timing violations, %d co-commitment misalignments, %d overlaps\n",
		violations, misalignments, overlaps)

	if shots := len(set.Shots); shots > 1 {
		fmt.Printf("shots:         %d in %v (%.1f shots/s)\n",
			shots, elapsed.Round(time.Millisecond), float64(shots)/elapsed.Seconds())
		if set.NumBits > 0 {
			fmt.Printf("histogram (%d bits, bit 0 leftmost):\n", set.NumBits)
			fmt.Print(histogramLines(set.Histogram()))
		}
	}
	return violations == 0 && misalignments == 0
}

// histogramLines renders a histogram one "  bitstring count" line per outcome.
func histogramLines(h runner.Histogram) string {
	var b strings.Builder
	for _, k := range h.Keys() {
		fmt.Fprintf(&b, "  %s %d\n", k, h[k])
	}
	return b.String()
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhisq-sim:", err)
		os.Exit(1)
	}
}

// parseBind parses the -bind flag: comma-separated name=value pairs
// binding a parameterized circuit's symbolic angles ("" = nil, no bind).
func parseBind(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-bind: want name=value, got %q", pair)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("-bind: bad value for %q: %v", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// submitRemote is the -serve client mode: POST the submission to a running
// dhisq-serve daemon and long-poll the job to its final status. The circuit
// travels as QASM text or as a benchmark name the daemon rebuilds locally,
// with every option alongside it; results are identical to an in-process
// run with the same seed and options.
//
// The submission is resolved locally before anything travels — the same
// service.Resolve the daemon will run — so an invalid option fails here
// with the daemon's own message instead of round-tripping for it.
func submitRemote(base string, sub service.Submission) (service.JobStatus, error) {
	var job service.JobStatus
	if _, err := resolve(sub); err != nil {
		return job, err
	}
	payload, err := json.Marshal(sub)
	if err != nil {
		return job, err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	var submitted struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		return job, fmt.Errorf("submit response: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return job, fmt.Errorf("submit: %s (%s)", resp.Status, submitted.Error)
	}
	// Cluster mode: a 307 redirect already landed this submission on its
	// owning shard (http.Post replays the body there), and that shard's
	// response names itself. Job IDs are per-shard, so polls must go to
	// the owner, not whichever member we happened to submit through.
	if submitted.Shard != "" {
		base = submitted.Shard
	}
	fmt.Printf("job:           %s on %s\n", submitted.ID, base)

	poll, err := http.Get(base + "/v1/jobs/" + submitted.ID + "?wait=1")
	if err != nil {
		return job, err
	}
	defer poll.Body.Close()
	if err := json.NewDecoder(poll.Body).Decode(&job); err != nil {
		return job, fmt.Errorf("job response: %w", err)
	}
	if job.State != service.StateDone {
		return job, fmt.Errorf("job %s: %s (%s)", submitted.ID, job.State, job.Err)
	}
	return job, nil
}

// printJob reports a finished remote job.
func printJob(job service.JobStatus, elapsed time.Duration) {
	fmt.Printf("state:         %s (seed %d, cache hit %v, batched %v)\n",
		job.State, job.Seed, job.CacheHit, job.Batched)
	if job.MeshW > 0 && job.MeshH > 0 {
		fmt.Printf("placement:     %s on %dx%d mesh\n", job.Placement, job.MeshW, job.MeshH)
	}
	if job.Schedule != "" {
		fmt.Printf("schedule:      %s\n", job.Schedule)
	}
	if len(job.Mapping) > 0 {
		fmt.Printf("mapping:       %v\n", job.Mapping)
	}
	fmt.Printf("makespan:      %d cycles (%d ns)\n", job.Makespan, sim.Nanoseconds(job.Makespan))
	fmt.Printf("shots:         %d in %v (%.1f shots/s)\n",
		job.Shots, elapsed.Round(time.Millisecond), float64(job.Shots)/elapsed.Seconds())
	if len(job.Histogram) > 0 {
		fmt.Printf("histogram (bit 0 leftmost):\n")
		fmt.Print(histogramLines(job.Histogram))
	}
}
