package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"
)

// options is one run of one workload.
type options struct {
	workload  string
	seed      int64
	seconds   float64 // length of the measured window
	trace     bool
	sizes     sizes
	setupReps int     // boots + warm-ups timed for setup_s
	root      string  // the repository this benchmark is part of
	daemonBin string  // built cmd/dhisq-serve
	buildS    float64 // how long building it took (loadgen.build_s)
	workDir   string  // scratch for daemon stores
	outDir    string  // traces land here; "" writes none
	golden    *golden // nil skips the exact checks
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// round is one tenth of the measured window's progress, in arrival order.
// Seconds and JobsPerS are as the clock read them; HostSpeed is what the
// probe made of the box meanwhile, and the metrics divide it out.
type round struct {
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
	JobsPerS  float64 `json:"jobs_per_s"`
	HostSpeed float64 `json:"host_speed_x"`
}

// quartiles are the 25th, 50th and 75th percentile of a metric's samples
// within one run: its rounds, or its set-up repetitions.
type quartiles [3]float64

func quartilesOf(values []float64) quartiles {
	return quartiles{quantileOf(values, 0.25), quantileOf(values, 0.5), quantileOf(values, 0.75)}
}

// report is everything one run of one workload measured.
type report struct {
	Workload  string           `json:"workload"`
	Clients   int              `json:"clients"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Samples   int              `json:"samples"` // timed jobs behind the latency percentiles
	Digest    string           `json:"histograms_sha256"`
	Rounds    []round          `json:"rounds,omitempty"`
	// Wire holds, for an untraced run, the window's timings: the serve.*
	// layer metrics that a traced run measures over its shorter window.
	// They are printed and kept in results.json, not in the result line.
	Wire map[string]value `json:"wire,omitempty"`
	// Spread holds, for setup_s and the window's timings, the quartiles
	// across the set-up repetitions or the run's rounds; -compare uses them
	// to tell a difference from noise.
	Spread map[string]quartiles `json:"spread,omitempty"`
	// Families breaks the per-layer means of a mixed workload down by
	// circuit family (traced runs only).
	Families map[string]map[string]value `json:"families,omitempty"`

	wireMeanMs float64 // traced runs: mean HTTP job latency, for serve.overhead_ms
}

// set records a metric; its unit comes from the tables in metrics.go.
func (r *report) set(name string, v float64) {
	def, ok := defs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in metrics.go")
	}
	r.Metrics[name] = value{Value: v, Unit: def.Unit}
}

const rounds = 10

// quantileOf interpolates the q-quantile of values (0 for none).
func quantileOf(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(values))
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// session is a booted, warmed daemon with its clients.
type session struct {
	d       *daemon
	clients []*client
}

func (s *session) close() {
	for _, c := range s.clients {
		c.close()
	}
	s.d.stop()
}

// runFixed sends the given stream indices closed-loop, spread over the
// clients, and returns the samples.
func runFixed(w *workload, clients []*client, indices []int) []sample {
	out := make([][]sample, len(clients))
	done := make(chan int)
	for k, c := range clients {
		go func() {
			for n := k; n < len(indices); n += len(clients) {
				i := indices[n]
				out[k] = append(out[k], c.do(i, w.jobAt(i), w.stream, time.Now()))
			}
			done <- k
		}()
	}
	var all []sample
	for range clients {
		<-done
	}
	for _, part := range out {
		all = append(all, part...)
	}
	return all
}

// setUp boots a daemon and sends the workload's warm-up jobs, one at a time
// whatever the workload's client count: two warming clients either overlap
// on the two cores or get in each other's way, and setup_s read 0.20 or
// 0.29 s accordingly. It is what setup_s times.
func setUp(o options, w *workload) (*session, []sample, error) {
	d, err := bootDaemon(o.daemonBin, o.workDir)
	if err != nil {
		return nil, nil, err
	}
	s := &session{d: d}
	for range w.clients {
		s.clients = append(s.clients, newClient(d.base))
	}
	warm := make([]int, w.warmup)
	for i := range warm {
		warm[i] = i
	}
	return s, runFixed(w, s.clients[:1], warm), nil
}

// measure runs the wire pass of one workload: set-up, the timed window,
// whatever of the census the window did not reach, and the checks. It fills
// the end-to-end metrics and, for a traced run, the wire-side layer metrics.
func measure(o options, w *workload, genS float64, rec *recorder, rep *report) error {
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 3 // the in-process passes take the rest
	}

	// The probe samples the host's speed from the first set-up to the end
	// of the window; its log is read once it has stopped.
	probe := startProbe()
	defer probe.stop()

	// Set-up is timed several times over; the last daemon stays up. Only
	// its warm-up samples are kept: every repetition sends the same jobs.
	var ses *session
	var warm []sample
	var setups [][2]time.Time
	reps := o.setupReps
	if o.trace {
		reps = 1 // a traced run does not report setup_s
	}
	for k := 0; k < reps; k++ {
		if ses != nil {
			ses.close()
		}
		t0 := time.Now()
		var err error
		if ses, warm, err = setUp(o, w); err != nil {
			return err
		}
		setups = append(setups, [2]time.Time{t0, time.Now()})
	}
	defer ses.close()
	for _, c := range ses.clients {
		c.rec = rec
	}

	stats0, err := ses.d.stats()
	if err != nil {
		return err
	}
	cpu := pollCPU(ses.d)
	start := time.Now()
	w.timing.Store(true)
	timed := runLoad(w, ses.clients, w.warmup, window, o.seed)
	w.timing.Store(false)
	probe.stop()
	cpuLog, err := cpu.stop()
	if err != nil {
		return err
	}
	stats1, err := ses.d.stats()
	if err != nil {
		return err
	}
	if w.lateGen > 0 {
		return fmt.Errorf("%s: the window outran the pre-generated stream and %d jobs were generated inside it; raise coldPerSecond", w.name, w.lateGen)
	}
	// Whatever of the census the window did not reach runs now, untimed.
	all := append(append([]sample(nil), warm...), timed...)
	var missing []int
	for c, ok := range w.answered(all) {
		if !ok {
			missing = append(missing, c)
		}
	}
	for _, c := range ses.clients {
		c.rec = nil
	}
	all = append(all, runFixed(w, ses.clients, missing)...)

	v := verify(w, all)
	rep.Attempted, rep.Failed, rep.Failures, rep.Digest = v.attempted, v.failed, v.messages, v.digest()
	if g := o.golden; g != nil {
		want, ok := g.Workloads[w.name]
		switch {
		case !ok:
			rep.Failed++
			rep.Failures = append(rep.Failures, "golden.json has no entry for "+w.name)
		case want.Digest != rep.Digest || want.Makespan != v.makespan:
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("golden: histograms %s makespan %d, want %s and %d",
				rep.Digest, v.makespan, want.Digest, want.Makespan))
		}
	}

	sort.Slice(timed, func(a, b int) bool { return timed[a].landed().Before(timed[b].landed()) })
	var lat, late, submit, wait []float64
	var reqBytes, respBytes, hits float64
	ok := timed[:0:0]
	for _, s := range timed {
		if s.err != nil {
			continue
		}
		ok = append(ok, s)
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.late))
		submit = append(submit, ms(s.submitRTT))
		wait = append(wait, ms(s.waitRTT))
		reqBytes += float64(s.reqBytes)
		respBytes += float64(s.respBytes)
		if s.cacheHit {
			hits++
		}
	}
	// Rounds hold equal counts of progress events (result lines), in
	// arrival order: a round's rate is its count over the time it took, so
	// it is not quantised by where a fixed boundary falls between jobs. The
	// same clock assigns jobs to rounds: a job is in the round that its last
	// line closed or fell into.
	var events []time.Time
	for _, s := range ok {
		events = append(events, s.progress...)
	}
	sort.Slice(events, func(a, b int) bool { return events[a].Before(events[b]) })
	if len(events) == 0 {
		return fmt.Errorf("%s: none of %d timed jobs succeeded: %v", w.name, len(timed), v.messages)
	}
	perJob := float64(len(events)) / float64(len(ok))
	// Every timing metric is taken per round, brought to the reference host
	// speed with what the probe read during that round, and reported as the
	// median round: a burst of interference from the host spoils a round,
	// not the run, and a slow minute of the host scales out.
	per := map[string][]float64{}
	prev := start
	nRounds := min(rounds, len(events)) // a smoke-test window can hold fewer events than rounds
	for k := 0; k < nRounds; k++ {
		part := events[k*len(events)/nRounds : (k+1)*len(events)/nRounds]
		end := part[len(part)-1]
		x := probe.speed(prev, end)
		r := round{Seconds: end.Sub(prev).Seconds(), HostSpeed: x}
		var rlat, rfirst []float64
		for _, s := range timed {
			if at := s.landed(); !at.After(prev) || at.After(end) {
				continue
			}
			r.Sent++
			if s.err != nil {
				r.Failed++
				continue
			}
			rlat = append(rlat, ms(s.latency())*x)
			rfirst = append(rfirst, ms(s.firstPoint)*x)
		}
		r.Succeeded = r.Sent - r.Failed
		jobs := float64(len(part)) / perJob
		r.JobsPerS = jobs / r.Seconds
		rate := r.JobsPerS / x
		if w.rate > 0 {
			rate = r.JobsPerS // below its knee an open loop completes what the schedule offers, whatever the host's speed
		}
		per["serve.jobs_per_s"] = append(per["serve.jobs_per_s"], rate)
		per["serve.shots_per_s"] = append(per["serve.shots_per_s"], rate*float64(w.shotsPerJob))
		per["serve.job_latency_p50_ms"] = append(per["serve.job_latency_p50_ms"], quantileOf(rlat, 0.5))
		per["serve.job_latency_p95_ms"] = append(per["serve.job_latency_p95_ms"], quantileOf(rlat, 0.95))
		per["serve.first_point_ms"] = append(per["serve.first_point_ms"], quantileOf(rfirst, 0.5))
		per["serve.daemon_cpu_ms_per_job"] = append(per["serve.daemon_cpu_ms_per_job"], (cpuLog.at(end)-cpuLog.at(prev))*1000/jobs*x)
		rep.Rounds = append(rep.Rounds, r)
		prev = end
	}
	rep.Samples = len(ok)
	n := float64(len(ok))

	if !o.trace {
		// The untraced pass reports what is bounded; the window's timings go
		// along unbounded, for the reader and for results.json.
		for _, t := range setups {
			per["setup_s"] = append(per["setup_s"], t[1].Sub(t[0]).Seconds()*probe.speed(t[0], t[1]))
		}
		rep.Spread = map[string]quartiles{}
		rep.Wire = map[string]value{}
		for name, values := range per {
			rep.Spread[name] = quartilesOf(values)
			if isEndToEnd(name) {
				rep.set(name, rep.Spread[name][1])
			} else {
				rep.Wire[name] = value{Value: rep.Spread[name][1], Unit: defs[name].Unit}
			}
		}
		rep.set("sim_makespan_cycles", float64(v.makespan))
		return nil
	}

	done := float64(stats1.Completed - stats0.Completed)
	rep.set("loadgen.late_p95_ms", quantileOf(late, 0.95))
	rep.set("loadgen.host_speed_x", probe.speed(start, start.Add(window)))
	for name, values := range per {
		rep.set(name, quantileOf(values, 0.5))
	}
	rep.set("loadgen.build_s", o.buildS)
	rep.set("loadgen.gen_s", genS)
	rep.set("serve.submit_rtt_p50_ms", quantileOf(submit, 0.5))
	rep.set("serve.wait_rtt_p50_ms", quantileOf(wait, 0.5))
	rep.set("serve.request_bytes", reqBytes/n)
	rep.set("serve.response_bytes", respBytes/n)
	rep.set("serve.rejected", float64(stats1.Rejected-stats0.Rejected))
	rep.set("serve.peak_rss_mb", ses.d.peakRSSMB())
	for _, l := range lat {
		rep.wireMeanMs += l / n
	}
	rep.set("service.batched_share", float64(stats1.BatchedJobs-stats0.BatchedJobs)/done)
	rep.set("service.pooled_replicas", float64(stats1.PooledReplicas))
	rep.set("service.binds", float64(stats1.Binds-stats0.Binds))
	rep.set("service.bind_hits", float64(stats1.BindHits-stats0.BindHits))
	rep.set("artifact.hit_share", hits/n)
	rep.set("artifact.evictions", float64(stats1.Cache.Evictions-stats0.Cache.Evictions))
	return nil
}

// runWorkload generates the workload's inputs and runs it once, untraced
// or traced.
func runWorkload(o options) (*report, error) {
	t0 := time.Now()
	w, err := newWorkload(o.workload, o.seed, o.sizes)
	if err != nil {
		return nil, err
	}
	if w.next != nil {
		// Generate ahead what the window can plausibly reach.
		w.jobAt(w.warmup + int(coldPerSecond*o.seconds))
	}
	genS := time.Since(t0).Seconds()

	rep := &report{Workload: w.name, Clients: w.clients, Metrics: map[string]value{}}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	if err := measure(o, w, genS, rec, rep); err != nil {
		return nil, err
	}
	if o.trace {
		if err := traced(o, w, rec, rep); err != nil {
			return nil, err
		}
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return nil, err
			}
			if err := rec.write(fmt.Sprintf("%s/trace-%s.json", o.outDir, w.name)); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}
