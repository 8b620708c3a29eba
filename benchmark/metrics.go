package main

import "slices"

// metricDef names one reported metric. BENCHMARK.json at the repository
// root carries the same table for the driver; the smoke test holds the two
// equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: relative worsening that is a regression
}

// endToEnd is what the driver holds a later change to: the metrics the
// reference box repeats within a bound. Every workload reports both. The
// issue that defined the benchmark listed seven timing metrics beside them
// and asked for any that cannot meet its bound in two sets of runs to be
// demoted, not given a wider one; on this box none of throughput, latency
// and daemon CPU per job can (README.md, "Spread on the reference box"),
// so they are serve.* layer metrics, measured and printed by both passes
// and bounded by nothing. failed_share is not in the table because it is 0
// on every good run: it is printed, and carried as attempted/failed in the
// result line, where any failure marks the run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_makespan_cycles", "cycles", "lower", 0.04},
}

// perLayer is the ledger: one group per module, no bounds.
var perLayer = []metricDef{
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.build_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.gen_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.host_speed_x", Unit: "x", Better: "higher"},

	{Name: "serve.submit_rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.request_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "serve.shots_per_s", Unit: "shots/s", Better: "higher"},
	{Name: "serve.job_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.job_latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.first_point_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.daemon_cpu_ms_per_job", Unit: "ms", Better: "lower"},

	{Name: "service.job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.self_ms", Unit: "ms", Better: "lower"},
	{Name: "service.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "service.batched_share", Unit: "ratio", Better: "higher"},
	{Name: "service.pooled_replicas", Unit: "count", Better: "lower"},
	{Name: "service.binds", Unit: "count", Better: "lower"},
	{Name: "service.bind_hits", Unit: "count", Better: "higher"},

	{Name: "circuit.parse_us", Unit: "us", Better: "lower"},
	{Name: "circuit.parse_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "circuit.validate_us", Unit: "us", Better: "lower"},
	{Name: "circuit.ops", Unit: "count", Better: "lower"},

	{Name: "artifact.key_us", Unit: "us", Better: "lower"},
	{Name: "artifact.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "artifact.evictions", Unit: "count", Better: "lower"},

	{Name: "compiler.place_us", Unit: "us", Better: "lower"},
	{Name: "compiler.lower_us", Unit: "us", Better: "lower"},
	{Name: "compiler.schedule_us", Unit: "us", Better: "lower"},
	{Name: "compiler.assemble_us", Unit: "us", Better: "lower"},
	{Name: "compiler.total_us", Unit: "us", Better: "lower"},
	{Name: "compiler.bind_us", Unit: "us", Better: "lower"},
	{Name: "compiler.instrs", Unit: "count", Better: "lower"},
	{Name: "compiler.allocs", Unit: "count", Better: "lower"},

	{Name: "store.encode_us", Unit: "us", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.artifact_bytes", Unit: "B", Better: "lower"},

	{Name: "machine.new_us", Unit: "us", Better: "lower"},
	{Name: "machine.load_us", Unit: "us", Better: "lower"},
	{Name: "machine.reset_us", Unit: "us", Better: "lower"},
	{Name: "machine.run_us", Unit: "us", Better: "lower"},
	{Name: "machine.readbits_us", Unit: "us", Better: "lower"},
	{Name: "machine.run_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "machine.allocs_per_shot", Unit: "count", Better: "lower"},
	{Name: "machine.sim_instructions", Unit: "count", Better: "lower"},
	{Name: "machine.sim_commits", Unit: "count", Better: "lower"},
	{Name: "machine.sim_gates", Unit: "count", Better: "lower"},
	{Name: "machine.sim_measurements", Unit: "count", Better: "lower"},
	{Name: "machine.sim_sync_stall_cycles", Unit: "cycles", Better: "lower"},
	{Name: "machine.sim_recv_stall_cycles", Unit: "cycles", Better: "lower"},
	{Name: "machine.sim_epr_pairs", Unit: "count", Better: "lower"},
	{Name: "machine.sim_violations", Unit: "count", Better: "lower"},
	{Name: "machine.sim_misalignments", Unit: "count", Better: "lower"},

	{Name: "chip.kernel_replay_us", Unit: "us", Better: "lower"},
	{Name: "chip.control_overhead_x", Unit: "x", Better: "lower"},

	{Name: "runner.run_on_us", Unit: "us", Better: "lower"},
	{Name: "runner.self_us", Unit: "us", Better: "lower"},
	{Name: "runner.histogram_us", Unit: "us", Better: "lower"},
}

// defs indexes both tables by name.
var defs = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d
	}
	return m
}()

// isEndToEnd reports whether name is in the end-to-end table.
func isEndToEnd(name string) bool {
	return slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.Name == name })
}
