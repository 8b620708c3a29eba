package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/runner"
	"dhisq/internal/service"
	"dhisq/internal/store"
)

// The traced pass replays the workload's census in-process, one job at a
// time, at two depths: through service.Submit→WaitContext, and as direct
// calls into each layer's exported functions in the order the service makes
// them. Spans are recorded here, around those calls; nothing inside the
// program is instrumented.

// Spans of the direct replay that happen inside the service's Submit→Wait
// interval. Their sum per job, taken from service.job, leaves what the
// service spends on its own: queue, pool, bookkeeping, hand-offs.
var insideService = map[string]bool{
	"artifact.key": true, "machine.new": true, "compiler.total": true,
	"store.put": true, "compiler.bind": true, "machine.load": true,
	"machine.reset": true, "machine.run": true, "machine.readbits": true,
	"runner.histogram": true,
}

// timedPass wraps one compiler pass in a span.
type timedPass struct {
	compiler.Pass
	rec         *recorder
	parent, job int
}

func (p timedPass) Run(st *compiler.State) error {
	sp := p.rec.begin("compiler."+p.Name(), p.parent, p.job)
	defer p.rec.end(sp)
	return p.Pass.Run(st)
}

// counts are the exact, host-independent totals of one census replay.
type counts map[string]int64

func (c counts) addResult(r machine.Result) {
	c["machine.sim_instructions"] += int64(r.Instructions)
	c["machine.sim_commits"] += int64(r.Commits)
	c["machine.sim_gates"] += int64(r.Gates)
	c["machine.sim_measurements"] += int64(r.Measurements)
	c["machine.sim_sync_stall_cycles"] += int64(r.SyncStall)
	c["machine.sim_recv_stall_cycles"] += int64(r.RecvStall)
	c["machine.sim_epr_pairs"] += int64(r.EPRPairs)
	c["machine.sim_violations"] += int64(r.Violations)
	c["machine.sim_misalignments"] += int64(r.Misalignments)
}

var countNames = []string{
	"compiler.instrs",
	"machine.sim_instructions", "machine.sim_commits", "machine.sim_gates",
	"machine.sim_measurements", "machine.sim_sync_stall_cycles",
	"machine.sim_recv_stall_cycles", "machine.sim_epr_pairs",
	"machine.sim_violations", "machine.sim_misalignments",
}

// replica is a machine the direct replay keeps loaded for an artifact, as
// the service's pool does.
type replica struct {
	m  *machine.Machine
	cp *compiler.Compiled
}

// direct replays jobs through the layers' exported functions.
type direct struct {
	rec   *recorder
	store *store.Store
	pool  map[artifact.Fingerprint]replica
	keep  bool // pool replicas across jobs (false: every job is distinct)

	// Every artifact compiles once, in the warm-up or in the census.
	counts       counts
	compiles     int64
	compileAlloc uint64
	storeBytes   int64
	// Filled while counting is set: the first replay of the census.
	counting   bool
	shots      int64
	shotAlloc  uint64
	ops        int64
	parseBytes int64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replay runs one job and returns its result. root names the enclosing
// span: direct.job for a measured replay, direct.warmup for one that only
// fills the pool.
func (d *direct) replay(root string, index int, j *job) (jobResult, error) {
	rec := d.rec
	top := rec.begin(root, noSpan, index)
	defer rec.end(top)
	span := func(name string, f func()) {
		sp := rec.begin(name, top, index)
		f()
		rec.end(sp)
	}

	// Serve side: the handler turns the body into a circuit.
	var c *circuit.Circuit
	var err error
	name := "circuit.build"
	if j.req.QASM != "" {
		name = "circuit.parse"
	}
	var res resolved
	span(name, func() {
		if res, err = j.req.resolve(); err == nil {
			c = res.circuit
		}
	})
	if err != nil {
		return jobResult{}, err
	}
	span("circuit.validate", func() { err = c.Validate() })
	if err != nil {
		return jobResult{}, err
	}
	if d.counting {
		d.ops += int64(len(c.Ops))
		d.parseBytes += int64(len(j.req.QASM))
	}

	// Admission: fingerprint, then the pool.
	cfg := res.spec.Cfg
	keyFor := machine.KeyFor
	if len(res.sweep) > 0 {
		keyFor = machine.StructuralKeyFor
	}
	var fp artifact.Fingerprint
	span("artifact.key", func() { fp, err = keyFor(c, res.spec.Mapping, cfg) })
	if err != nil {
		return jobResult{}, err
	}
	rep, pooled := d.pool[fp]
	if !pooled {
		span("machine.new", func() { rep.m, err = machine.NewForCircuit(c, res.spec.MeshW, res.spec.MeshH, cfg) })
		if err != nil {
			return jobResult{}, err
		}
		before := mallocs()
		total := rec.begin("compiler.total", top, index)
		pipe := compiler.NewPipeline()
		for i, p := range pipe.Passes {
			pipe.Passes[i] = timedPass{Pass: p, rec: rec, parent: total, job: index}
		}
		rep.cp, err = pipe.Run(&compiler.State{
			Circuit: c, Mapping: res.spec.Mapping, Topo: rep.m.Topo, Windows: rep.m.Fab, Opt: rep.m.CompileOptions(),
		})
		rec.end(total)
		if err != nil {
			return jobResult{}, err
		}
		d.compileAlloc += mallocs() - before
		d.compiles++
		d.counts["compiler.instrs"] += int64(rep.cp.Stats.Instructions)
		// Put encodes again itself; the separate span prices the encoding.
		var blob []byte
		span("store.encode", func() { blob = store.Encode(rep.cp) })
		d.storeBytes += int64(len(blob))
		span("store.put", func() { err = d.store.Put(fp, rep.cp) })
		if err != nil {
			return jobResult{}, err
		}
		span("machine.load", func() { err = rep.m.Load(rep.cp) })
		if err != nil {
			return jobResult{}, err
		}
		if d.keep {
			d.pool[fp] = rep
		}
	}

	// Execution: what runner.RunOn and RunSweepOn do, call by call.
	numBits := c.NumBits
	shots := func(base int64) *runner.ShotSet {
		set := &runner.ShotSet{Shots: make([]runner.Shot, res.shots), NumBits: numBits}
		var before uint64
		if d.counting {
			before = mallocs()
		}
		for k := range set.Shots {
			seed := machine.DeriveSeed(base, k)
			var r machine.Result
			var bits []int
			span("machine.reset", func() { rep.m.Reset(seed) })
			span("machine.run", func() { r, err = rep.m.Run() })
			if err != nil {
				return nil
			}
			span("machine.readbits", func() { bits, err = rep.m.ReadBits() })
			if err != nil {
				return nil
			}
			set.Shots[k] = runner.Shot{Index: k, Seed: seed, Result: r, Bits: bits}
			if d.counting {
				d.counts.addResult(r)
			}
		}
		if d.counting {
			d.shotAlloc += mallocs() - before
			d.shots += int64(len(set.Shots))
		}
		return set
	}
	// runOn runs the same shots again through the runner's own loop: the
	// difference to the three spans above is the runner's self time.
	runOn := func(base int64) {
		span("runner.run_on", func() {
			_, err = runner.RunOn([]*machine.Machine{rep.m}, base, res.shots, numBits)
		})
	}
	histogram := func(set *runner.ShotSet) (h runner.Histogram) {
		span("runner.histogram", func() { h = set.Histogram() })
		return h
	}
	// kernel interprets the circuit directly on the chip's state kernel,
	// with no control stack, once per shot. The seeded backend has no
	// kernel to replay.
	kernel := func(bound *circuit.Circuit, base int64) {
		backend := machine.ResolveBackend(bound, cfg.Backend)
		for k := 0; k < res.shots && err == nil; k++ {
			rng := rand.New(rand.NewSource(machine.DeriveSeed(base, k)))
			switch backend {
			case machine.BackendStateVec:
				span("chip.kernel_replay", func() { _, _, err = bound.RunStateVector(rng) })
			case machine.BackendStabilizer:
				span("chip.kernel_replay", func() { _, _, err = bound.RunStabilizer(rng) })
			}
		}
	}

	var out jobResult
	if len(res.sweep) > 0 {
		for k, point := range res.sweep {
			var bound *compiler.Compiled
			span("compiler.bind", func() { bound, err = rep.cp.BindParams(point) })
			if err != nil {
				return jobResult{}, err
			}
			span("machine.load", func() { err = rep.m.Load(bound) })
			if err != nil {
				return jobResult{}, err
			}
			base := machine.DeriveSeed(j.req.Seed, k)
			set := shots(base)
			if err != nil {
				return jobResult{}, err
			}
			one := jobResult{Histogram: histogram(set), Makespan: int64(set.Shots[0].Result.Makespan)}
			out.Points = append(out.Points, pointResult{Index: k, Params: point, Histogram: one.Histogram, Makespan: one.Makespan})
			runOn(base)
			bc, berr := c.Bind(point)
			if berr != nil {
				return jobResult{}, berr
			}
			kernel(bc, base)
		}
		out.Makespan = out.Points[0].Makespan
	} else {
		set := shots(j.req.Seed)
		if err != nil {
			return jobResult{}, err
		}
		out = jobResult{Histogram: histogram(set), Makespan: int64(set.Shots[0].Result.Makespan)}
		runOn(j.req.Seed)
		kernel(c, j.req.Seed)
	}
	if err != nil {
		return jobResult{}, err
	}

	// Serve side again: the snapshot goes out as JSON.
	span("serve.encode", func() {
		_, err = json.Marshal(jobResponse{ID: "job-000000", State: "done", CacheHit: pooled, jobResult: out})
	})
	return out, err
}

// traced runs the two in-process passes and fills the per-layer metrics.
func traced(o options, w *workload, rec *recorder, rep *report) error {
	budget := time.Duration(o.seconds * float64(time.Second) / 3)
	dir, err := os.MkdirTemp(o.workDir, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Level two: the in-process service, one worker, one job at a time.
	st, err := store.Open(dir+"/service", 0)
	if err != nil {
		return err
	}
	arts := artifact.New(128)
	arts.SetStore(st)
	svc := service.New(service.Config{Workers: 1, QueueDepth: 64, ShotWorkers: 1, Artifacts: arts})
	defer svc.Close()
	viaService := func(name string, index int) (jobResult, error) {
		sreq, err := w.jobAt(index).req.serviceRequest()
		if err != nil {
			return jobResult{}, err
		}
		sp := rec.begin(name, noSpan, index)
		id, err := svc.Submit(sreq)
		if err != nil {
			return jobResult{}, err
		}
		status, _ := svc.WaitContext(context.Background(), id)
		rec.end(sp)
		if status.State != service.StateDone {
			return jobResult{}, fmt.Errorf("in-process job %d: %s: %s", index, status.State, status.Err)
		}
		return resultOfStatus(status), nil
	}
	// A cycling workload is replayed warm, like the wire pass; a
	// never-repeating one has nothing to warm and is replayed once, since a
	// second pass would hit the cache.
	cycling := w.next == nil
	warmup := 0
	if cycling {
		warmup = w.warmup
	}
	for i := 0; i < warmup; i++ {
		if _, err := viaService("service.warmup", i); err != nil {
			return err
		}
	}
	served := make([][]byte, w.census)
	for start, pass := time.Now(), 0; pass == 0 || (cycling && time.Since(start) < budget); pass++ {
		for c := 0; c < w.census; c++ {
			res, err := viaService("service.job", c)
			if err != nil {
				return err
			}
			served[c] = res.canonical()
		}
	}

	// Level three: the same jobs as direct calls into each layer.
	dst, err := store.Open(dir+"/direct", 0)
	if err != nil {
		return err
	}
	d := &direct{rec: rec, store: dst, pool: map[artifact.Fingerprint]replica{}, keep: cycling, counts: counts{}}
	for i := 0; i < warmup; i++ {
		if _, err := d.replay("direct.warmup", i, w.jobAt(i)); err != nil {
			return err
		}
	}
	d.counting = true
	for start, pass := time.Now(), 0; pass == 0 || (cycling && time.Since(start) < budget); pass++ {
		for c := 0; c < w.census; c++ {
			res, err := d.replay("direct.job", c, w.jobAt(c))
			if err != nil {
				return err
			}
			if !bytes.Equal(res.canonical(), served[c]) {
				rep.Failed++
				rep.Failures = append(rep.Failures, fmt.Sprintf("census job %d: direct replay and in-process service differ", c))
			}
		}
		d.counting = false
	}

	fillLayers(o, w, rec, d, rep)
	return nil
}

// fillLayers turns the recorded spans and counts into per-layer metrics.
func fillLayers(o options, w *workload, rec *recorder, d *direct, rep *report) {
	// Per span name: mean duration of one occurrence, and total duration of
	// the occurrences under measured direct.job roots.
	type tally struct {
		sum, n float64
		inJobs float64 // summed over spans whose root is a direct.job
	}
	all := map[string]*tally{}
	fams := map[string]map[string]*tally{}
	get := func(m map[string]*tally, name string) *tally {
		if m[name] == nil {
			m[name] = &tally{}
		}
		return m[name]
	}
	var service []float64
	jobs := 0.0
	for _, s := range rec.spans {
		root := s
		for root.Parent != noSpan {
			root = rec.spans[root.Parent]
		}
		if strings.HasPrefix(root.Name, "http.") || (s.Parent == noSpan && strings.HasSuffix(s.Name, ".warmup")) {
			continue
		}
		dur := float64(s.End - s.Start)
		fam := w.jobAt(s.Job).family
		if fams[fam] == nil {
			fams[fam] = map[string]*tally{}
		}
		for _, t := range []*tally{get(all, s.Name), get(fams[fam], s.Name)} {
			t.sum += dur
			t.n++
			if root.Name == "direct.job" {
				t.inJobs += dur
			}
		}
		switch s.Name {
		case "service.job":
			service = append(service, dur/1e6)
		case "direct.job":
			jobs++
		}
	}
	us := func(name string) float64 {
		if t := all[name]; t != nil && t.n > 0 {
			return t.sum / t.n / 1e3
		}
		return 0
	}
	perJobMs := func(name string) float64 {
		if t := all[name]; t != nil && jobs > 0 {
			return t.inJobs / jobs / 1e6
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	serviceMean := 0.0
	for _, v := range service {
		serviceMean += v / float64(len(service))
	}
	inside := 0.0
	for name := range insideService {
		inside += perJobMs(name)
	}
	// Means, not medians: both passes cycle the same census, and the
	// median of a mixed workload sits between its families.
	rep.set("serve.overhead_ms", rep.wireMeanMs-serviceMean)
	rep.set("service.job_p50_ms", quantileOf(service, 0.5))
	rep.set("service.self_ms", serviceMean-inside)
	rep.set("service.unattributed_share", ratio(serviceMean-inside, serviceMean))

	parse := "circuit.parse"
	if all[parse] == nil {
		parse = "circuit.build"
	}
	rep.set("circuit.parse_us", us(parse))
	rep.set("circuit.parse_mb_s", ratio(float64(d.parseBytes), perJobMs("circuit.parse")*1e3*float64(w.census)))
	rep.set("circuit.validate_us", us("circuit.validate"))
	rep.set("circuit.ops", float64(d.ops)/float64(w.census))
	rep.set("artifact.key_us", us("artifact.key"))
	for _, pass := range []string{"place", "lower", "schedule", "assemble", "total", "bind"} {
		rep.set("compiler."+pass+"_us", us("compiler."+pass))
	}
	rep.set("compiler.allocs", ratio(float64(d.compileAlloc), float64(d.compiles)))
	rep.set("store.encode_us", us("store.encode"))
	rep.set("store.put_us", us("store.put"))
	rep.set("store.artifact_bytes", ratio(float64(d.storeBytes), float64(d.compiles)))
	for _, call := range []string{"new", "load", "reset", "run", "readbits"} {
		rep.set("machine."+call+"_us", us("machine."+call))
	}
	runNs := 0.0
	if t := all["machine.run"]; t != nil {
		// Counts cover one replay of the census, spans every replay.
		runNs = t.inJobs / jobs * float64(w.census)
	}
	rep.set("machine.run_ns_per_instr", ratio(runNs, float64(d.counts["machine.sim_instructions"])))
	rep.set("machine.allocs_per_shot", ratio(float64(d.shotAlloc), float64(d.shots)))
	for _, name := range countNames {
		rep.set(name, float64(d.counts[name]))
	}
	rep.set("chip.kernel_replay_us", us("chip.kernel_replay"))
	// Only families with a kernel to replay enter the ratio.
	var runUs, kernelUs float64
	for _, f := range fams {
		if k := f["chip.kernel_replay"]; k != nil {
			runUs += f["machine.run"].sum
			kernelUs += k.sum
		}
	}
	rep.set("chip.control_overhead_x", ratio(runUs, kernelUs))
	shotLoop := perJobMs("machine.reset") + perJobMs("machine.run") + perJobMs("machine.readbits")
	rep.set("runner.run_on_us", us("runner.run_on"))
	rep.set("runner.self_us", (perJobMs("runner.run_on")-shotLoop)*1e3)
	rep.set("runner.histogram_us", us("runner.histogram"))

	if g := o.golden; g != nil {
		for _, name := range countNames {
			if want, ok := g.Workloads[w.name].Counts[name]; !ok || want != d.counts[name] {
				rep.Failed++
				rep.Failures = append(rep.Failures, fmt.Sprintf("golden: %s = %d, want %d", name, d.counts[name], want))
			}
		}
	}

	if len(fams) > 1 {
		rep.Families = map[string]map[string]value{}
		for fam, m := range fams {
			rep.Families[fam] = map[string]value{}
			for name, t := range m {
				rep.Families[fam][name+"_us"] = value{Value: t.sum / t.n / 1e3, Unit: "us"}
			}
		}
	}
}
