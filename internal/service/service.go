// Package service is the request-serving layer of the stack: a long-lived
// job manager that turns circuit submissions into shot executions on a
// bounded worker pool, built directly on internal/runner's deterministic
// shot merge and internal/artifact's compile-once cache.
//
// The execution model separates the reusable compiled program from the
// per-request schedule (the split Riverlane's distributed VQE controller
// and the DisQ processor model both argue for): a job is fingerprinted on
// submission, compilation goes through the shared artifact cache, and
// loaded machine replicas are pooled *per artifact*, so a burst of jobs
// for the same circuit batches onto the same warm replicas — no compile,
// no machine construction, just reset-and-run per shot.
//
// Determinism survives the service boundary. Every job runs with its own
// base seed (caller-chosen, or derived from the service seed and the job's
// admission index), shot k of a job uses machine.DeriveSeed(jobSeed, k),
// and results merge shot-indexed via runner.RunOn — so a job's ShotSet is
// byte-identical whether it ran on one pooled replica or four, cold cache
// or warm.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"dhisq/internal/artifact"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/sim"
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the number of jobs executed concurrently (<= 0 picks
	// GOMAXPROCS/2, minimum 1). Each running job additionally fans its
	// shots across ShotWorkers replicas.
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs;
	// Submit fails with ErrQueueFull beyond it (<= 0 means 64).
	QueueDepth int
	// ShotWorkers is the replica count a single job's shots fan out
	// across (<= 0 means 1; service throughput usually comes from job
	// parallelism, not per-job fan-out).
	ShotWorkers int
	// Seed is the service base seed: job n with no explicit seed runs
	// with machine.DeriveSeed(Seed, n) (0 means 1).
	Seed int64
	// MaxPooledReplicas bounds the loaded machines kept warm across all
	// artifacts (<= 0 means 4 * Workers). Least recently used artifact
	// pools are dropped first.
	MaxPooledReplicas int
	// MaxRetainedJobs bounds how many finished jobs stay queryable
	// (<= 0 means 4096). Oldest-finished are forgotten first, so a
	// long-lived daemon's memory does not grow with total traffic; a
	// Get/Wait for a forgotten job reports not-found.
	MaxRetainedJobs int
	// MaxSweepPoints bounds the points one sweep job may carry
	// (<= 0 means 4096). The job queue bounds jobs, not work: without
	// this cap a single submission could monopolize a worker forever and
	// retain an unbounded Points snapshot past completion.
	MaxSweepPoints int
	// Artifacts is the compiled-artifact cache this service compiles
	// through (nil = the process-wide artifact.Shared). A service with a
	// private cache — typically one with an on-disk store attached via
	// artifact.Cache.SetStore — keeps its compile accounting and its
	// restart-warm behavior independent of everything else in the process,
	// which is what the in-process cluster and crash/restart tests need.
	Artifacts *artifact.Cache
	// ReplaceStallThreshold enables congestion-feedback re-placement: the
	// service aggregates per-link fabric stalls per replica-pool group
	// (compiler.Feedback), and once a group's total crosses this many
	// cycles it recompiles the circuit with a feedback-weighted placement
	// (machine.RePlace) and swaps the group's replicas — the structural
	// key is untouched, so a sweep family keeps its bind cache while its
	// warm replicas get a less congested mapping. 0 (the default)
	// disables the loop entirely: first-run behavior is byte-identical to
	// a service without it.
	ReplaceStallThreshold uint64
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// JobStatus is a point-in-time snapshot of a job, safe to retain. Its JSON
// form is the job response of dhisq-serve's GET /v1/jobs/{id}.
type JobStatus struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Shots       int    `json:"shots"`
	Seed        int64  `json:"seed"`
	Fingerprint string `json:"fingerprint,omitempty"` // artifact fingerprint (hex)
	CacheHit    bool   `json:"cache_hit"`             // compilation was served from the artifact cache
	Batched     bool   `json:"batched"`               // ran on pooled replicas warmed by an earlier job
	// MeshW/MeshH are the resolved controller-mesh dimensions and
	// Placement the resolved policy name — echoed so remote users can see
	// why two submissions landed in different replica pools.
	MeshW     int    `json:"mesh_w,omitempty"`
	MeshH     int    `json:"mesh_h,omitempty"`
	Placement string `json:"placement,omitempty"`
	// Schedule is the resolved scheduling policy name, echoed like
	// Placement.
	Schedule string `json:"schedule,omitempty"`
	// Mapping is the final qubit→controller mapping the job compiled with
	// (nil = identity), as resolved by the compiler's Place pass. A job
	// served by a feedback-re-placed replica pool echoes the re-placed
	// mapping.
	Mapping []int `json:"mapping,omitempty"`
	// Chips is the resolved chip count the job compiled with (0 = the
	// legacy single-chip machine), echoed like Placement; EPRPairs
	// totals the EPR pairs generated across the job's shots (0 for
	// single-chip jobs and for sweep jobs, which drop their shot sets).
	Chips    int    `json:"chips,omitempty"`
	EPRPairs uint64 `json:"epr_pairs,omitempty"`
	// Makespan is shot 0's makespan in cycles (0 until done; for sweep
	// jobs, point 0 shot 0).
	Makespan int64 `json:"makespan_cycles,omitempty"`
	// Set and Histogram are populated once State == StateDone (nil for
	// sweep jobs, whose results arrive per point in Points). The shot set
	// never travels: the wire carries the histogram.
	Set       *runner.ShotSet  `json:"-"`
	Histogram runner.Histogram `json:"histogram,omitempty"`
	// Points holds the per-point outcomes of a sweep job, in point order.
	Points []PointStatus `json:"points,omitempty"`
	Err    string        `json:"error,omitempty"`
}

// PointStatus is one sweep point's outcome. Index is the point's position
// in the submitted sweep — in JobStatus.Points the slice is already in
// index order, but a stream delivers points in completion order, and
// under multiple shot workers that is not submission order.
type PointStatus struct {
	Index     int                `json:"index"`
	Params    map[string]float64 `json:"params"`
	Histogram runner.Histogram   `json:"histogram"`
	Makespan  int64              `json:"makespan_cycles"`
}

// pointStatusOf folds one finished sweep point into its retainable
// snapshot (histogram + makespan; the full shot set is dropped).
func pointStatusOf(p runner.SweepPoint) PointStatus {
	st := PointStatus{Index: p.Index, Params: p.Params, Histogram: p.Set.Histogram()}
	if len(p.Set.Shots) > 0 {
		st.Makespan = int64(p.Set.Shots[0].Result.Makespan)
	}
	return st
}

// Done reports whether the job has reached a terminal state.
func (s JobStatus) Done() bool { return s.State == StateDone || s.State == StateFailed }

// Stats is a point-in-time snapshot of service health, the payload of
// dhisq-serve's /v1/stats.
type Stats struct {
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Rejected   uint64 `json:"rejected"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	// BatchedJobs counts jobs that found pooled replicas: warm machines
	// already loaded with their artifact, so none had to be built. The
	// name is from "batched onto warm replicas" (JobStatus.Batched); it
	// never meant shot lanes, and says nothing about the commit tape.
	BatchedJobs uint64 `json:"batched_jobs"`
	// TapedShots counts shots served off a replica's commit tape — a
	// static program's control stack is simulated once per replica, then
	// replayed against the backend (machine.Shot). TapeFallbacks counts
	// recording shots whose self-check failed, after which that replica
	// simulates the program in full; expected 0.
	TapedShots    uint64 `json:"taped_shots"`
	TapeFallbacks uint64 `json:"tape_fallbacks"`
	// Binds counts BindParams patch operations performed on the cached
	// path (one per parameter-bound job, one per sweep point); BindHits
	// counts parameter-bound jobs whose compiled skeleton was served from
	// the artifact cache — the compile the binding layer saved.
	Binds          uint64         `json:"binds"`
	BindHits       uint64         `json:"bind_hits"`
	PooledReplicas int            `json:"pooled_replicas"`
	Cache          artifact.Stats `json:"artifact_cache"`
	// Congestion counters, aggregated across every shot of every
	// completed job. All zero unless jobs ran with the fabric's
	// contention model enabled (network.Config.LinkSerialization > 0).
	// NetStallCycles counts queueing at every link and router port —
	// all traffic, router-originated hops included — matching
	// BENCH_fabric.json's total_stall_cycles, not its narrower
	// controller-charged net_stall_cycles.
	NetStallCycles uint64 `json:"net_total_stall_cycles"`
	NetMaxQueue    int    `json:"net_max_queue"`
	NetMessages    uint64 `json:"net_messages"`
	NetOverflows   uint64 `json:"net_overflows"`
	// Collective-layer counters (network.CongestionStats): operations the
	// fabric's collective layer executed across completed jobs' shots, and
	// the queueing cycles their messages accrued. Ops count even with the
	// contention model disabled; the stall needs finite link bandwidth.
	NetCollectiveOps   uint64 `json:"net_collective_ops"`
	NetCollectiveStall uint64 `json:"net_collective_stall_cycles"`
	// Replacements counts replica-pool groups re-placed via congestion
	// feedback (0 unless Config.ReplaceStallThreshold is set).
	Replacements uint64 `json:"replacements"`
}

// ErrQueueFull is returned by Submit when the bounded queue is at depth.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// poolKey identifies machines that are interchangeable for job
// execution: same compiled artifact AND same runtime configuration. The
// artifact fingerprint only covers compile-relevant inputs; two jobs can
// share binaries yet need different machines (state-vector vs seeded
// backend, event logging, deadline), so those ride along here. Seed is
// deliberately absent — Reset(seed) re-seeds a pooled machine per shot.
type poolKey struct {
	fp        artifact.Fingerprint
	backend   machine.BackendKind // resolved, never BackendAuto
	logEvents bool
	deadline  sim.Time
	// collective is the resolved Config.Collective schedule name. The
	// schedule is runtime configuration — every schedule shares one
	// compiled artifact (keyVersion 6 hashes only the on/off toggle) — but
	// a pooled machine is built with one Cfg, so "ring" and "tree" jobs
	// must not trade replicas.
	collective string
}

type job struct {
	id string
	// req and spec hold the parsed circuit (~300 KB for a 30-qubit QFT) and
	// belong to the worker: release drops them once the job is past the
	// re-place loop, so the MaxRetainedJobs finished jobs kept for polling
	// retain results only. What status() reports of them is copied out.
	req  Request
	spec runner.Spec

	shots, meshW, meshH, chips int // from req and spec.Cfg, for status()

	pk        poolKey // pk.fp is the job's fingerprint (Admission.Fingerprint)
	seed      int64
	placement string // resolved placement policy name (never "")
	schedule  string // resolved schedule policy name (never "")

	mu       sync.Mutex
	state    State
	cacheHit bool
	batched  bool
	mapping  []int // final qubit→controller mapping (nil = identity)
	set      *runner.ShotSet
	// Derived from the results once, at finish, not per poll.
	hist     runner.Histogram
	makespan int64
	eprPairs uint64
	points   []PointStatus // sweep jobs: per-point outcomes, index order
	// streamed holds sweep points in completion order as they finish —
	// the publication log Stream cursors over while the job still runs.
	// notify is closed and replaced under mu on every publish, so any
	// number of streaming watchers can wait for "something new" without
	// polling and without a Cond (a channel honors context cancellation).
	streamed []PointStatus
	notify   chan struct{}
	err      error
	done     chan struct{}
}

// release drops the job's request and run spec. Called by the worker that
// owned the job, after its last use of them.
func (j *job) release() {
	j.mu.Lock()
	j.req, j.spec = Request{}, runner.Spec{}
	j.mu.Unlock()
}

// publish appends one finished sweep point to the stream log and wakes
// every watcher. Called from runner worker goroutines mid-execution.
func (j *job) publish(ps PointStatus) {
	j.mu.Lock()
	j.streamed = append(j.streamed, ps)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// Service is the job manager. Construct with New, stop with Close.
type Service struct {
	cfg   Config
	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // completion order, oldest first (retention bound)
	nextID   uint64
	closed   bool
	running  int
	stats    Stats
	pool     *replicaPool
	// feedback tracks aggregated congestion per replica-pool group when
	// Config.ReplaceStallThreshold is set (nil entries never exist; the
	// map stays empty with the loop disabled; forget deletes a group's
	// entry when the pool evicts the group).
	feedback map[poolKey]*feedbackState

	wg sync.WaitGroup
}

// feedbackState is one replica-pool group's accumulated congestion and,
// once the threshold tripped, the re-placed artifact every later job of
// the group executes with.
type feedbackState struct {
	fb       compiler.Feedback
	replaced bool               // re-place triggered (claims are one-shot)
	artifact *compiler.Compiled // re-placed artifact (nil until swap done)
}

// New starts a service with cfg's worker pool running.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) / 2
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ShotWorkers <= 0 {
		cfg.ShotWorkers = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxPooledReplicas <= 0 {
		cfg.MaxPooledReplicas = 4 * cfg.Workers
	}
	if cfg.MaxRetainedJobs <= 0 {
		cfg.MaxRetainedJobs = 4096
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = 4096
	}
	if cfg.Artifacts == nil {
		cfg.Artifacts = artifact.Shared
	}
	s := &Service{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		pool:     newReplicaPool(cfg.MaxPooledReplicas),
		feedback: make(map[poolKey]*feedbackState),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit resolves and enqueues a job, returning its ID immediately.
func (s *Service) Submit(req Request) (string, error) {
	a, err := Resolve(req)
	if err != nil {
		return "", err
	}
	return s.Enqueue(a)
}

// Enqueue queues a resolved submission — Submit's second half, exported for
// callers that resolved already to route on the fingerprint (dhisq-serve
// -cluster). The queue is bounded: a full queue rejects with ErrQueueFull
// rather than blocking the caller (admission control, not
// backpressure-by-hanging). Nothing here reads the circuit — Resolve hashed
// it, outside the service lock.
func (s *Service) Enqueue(a Admission) (string, error) {
	if len(a.Req.Sweep) > s.cfg.MaxSweepPoints {
		return "", fmt.Errorf("service: sweep has %d points, limit %d (split it into multiple jobs — they share the compiled skeleton anyway)",
			len(a.Req.Sweep), s.cfg.MaxSweepPoints)
	}
	cfg := &a.Spec.Cfg
	// Jobs compile through this service's artifact cache unless the caller
	// pinned one in req.Cfg (which cache serves a compile is in no key).
	if cfg.Artifacts == nil {
		cfg.Artifacts = s.cfg.Artifacts
	}
	j := &job{
		req:   a.Req,
		shots: a.Req.Shots, meshW: a.Spec.MeshW, meshH: a.Spec.MeshH, chips: cfg.Chips,

		placement: cmp.Or(cfg.Placement, placement.Default),
		schedule:  cmp.Or(cfg.Schedule, compiler.DefaultSchedule),
		// cfg is normalized: its backend is the one the replicas are built
		// with, never BackendAuto.
		pk: poolKey{
			fp: a.Fingerprint, backend: cfg.Backend,
			logEvents: cfg.LogEvents, deadline: cfg.Deadline,
			collective: cfg.Collective,
		},
		state:  StateQueued,
		done:   make(chan struct{}),
		notify: make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrClosed
	}
	n := s.nextID
	s.nextID++
	if cfg.Seed == 0 {
		cfg.Seed = machine.DeriveSeed(s.cfg.Seed, int(n))
	}
	j.id = fmt.Sprintf("job-%06d", n)
	j.seed = cfg.Seed
	j.spec = a.Spec
	select {
	case s.queue <- j:
	default:
		s.nextID = n // roll the ID back so rejects don't burn seeds
		s.stats.Rejected++
		s.mu.Unlock()
		return "", ErrQueueFull
	}
	s.jobs[j.id] = j
	s.stats.Submitted++
	s.mu.Unlock()
	return j.id, nil
}

// Get snapshots a job by ID.
func (s *Service) Get(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Wait blocks until the job reaches a terminal state and returns its
// final snapshot (the "stream the result" path; Get is the poll path).
func (s *Service) Wait(id string) (JobStatus, bool) {
	return s.WaitContext(context.Background(), id)
}

// WaitContext is Wait with a deadline: it blocks until the job reaches a
// terminal state or the context is done, whichever comes first, and
// returns the job's snapshot at that moment. A cancelled context does not
// fail the lookup — the boolean still reports whether the job exists, and
// the caller distinguishes "finished" from "gave up waiting" by
// JobStatus.Done(). An already-cancelled context degrades to Get.
func (s *Service) WaitContext(ctx context.Context, id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return j.status(), true
}

// Stats snapshots service counters plus the shared artifact-cache stats.
// Every s.stats mutation — admission, rejection, the worker's
// completion/failure/bind accounting, and congestion folding — happens
// under s.mu, so the snapshot is internally consistent (Completed never
// exceeds Submitted) no matter how many readers poll under load.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	st.Running = s.running
	s.mu.Unlock()
	st.PooledReplicas = s.pool.size()
	st.Cache = s.cfg.Artifacts.Stats()
	return st
}

// Close stops admission, drains queued jobs to failure, and waits for
// running jobs to finish.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		if s.closed {
			// Drain: jobs admitted before Close but not started fail
			// deterministically instead of hanging their waiters.
			s.stats.Failed++
			s.retire(j.id)
			s.mu.Unlock()
			j.finish(result{}, fmt.Errorf("service: shut down before job started"))
			j.release()
			continue
		}
		s.running++
		s.mu.Unlock()
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()

		p := s.planFor(j.req)
		res, err := s.run(j, p)

		s.mu.Lock()
		s.running--
		s.stats.TapedShots += res.tape.Replayed
		s.stats.TapeFallbacks += res.tape.Fallbacks
		if err != nil {
			s.stats.Failed++
		} else {
			s.stats.Completed++
			if res.batched {
				s.stats.BatchedJobs++
			}
			if p.structural {
				s.stats.Binds += uint64(len(p.points))
				if res.cacheHit {
					s.stats.BindHits++
				}
			}
			s.foldCongestion(res.net)
		}
		s.retire(j.id)
		s.mu.Unlock()
		// Waiters wake only now, so a Stats call that follows a Wait sees
		// this job counted.
		j.finish(res, err)
		if err == nil {
			s.maybeReplace(j, p, res.net.fb)
		}
		j.release()
	}
}

// netDigest is one shot's fabric-congestion summary, the element type of
// the host reduction tree: add builds one per shot and folds them with
// runner.TreeReduce instead of a linear accumulation loop. Collective
// counters fold even when the contention model is disabled — the
// collective layer runs (and counts operations) either way.
type netDigest struct {
	stall, messages, overflows uint64
	collOps, collStall         uint64
	maxQueue                   int
}

// digestOf extracts a shot's congestion digest from its result.
func digestOf(res machine.Result) netDigest {
	net := res.Net
	d := netDigest{
		collOps:   net.CollectiveOps,
		collStall: uint64(net.CollectiveStall),
	}
	if !net.Enabled {
		return d
	}
	d.stall = uint64(net.TotalStall())
	d.messages = net.LinkMessages + net.PortMessages
	d.overflows = net.LinkOverflows + net.PortOverflows
	d.maxQueue = net.MaxQueue()
	return d
}

// merge combines two digests (associative and commutative — sums and a
// max — so the reduction tree agrees with any fold order).
func (d netDigest) merge(e netDigest) netDigest {
	d.stall += e.stall
	d.messages += e.messages
	d.overflows += e.overflows
	d.collOps += e.collOps
	d.collStall += e.collStall
	if e.maxQueue > d.maxQueue {
		d.maxQueue = e.maxQueue
	}
	return d
}

// digestGrain keeps small shot sets on the sequential leaf path of the
// reduction tree; only jobs with hundreds of shots fan the fold out.
const digestGrain = 256

// congestionAgg accumulates per-shot fabric congestion so it can outlive
// the shot sets it came from (sweep jobs drop theirs in run), which
// is how sweep jobs still move the /v1/stats net_* counters. With
// track set it additionally folds the per-link attribution into a
// compiler.Feedback for the re-place loop; aggregation is commutative
// either way, so the result is independent of shot completion order.
type congestionAgg struct {
	net   netDigest
	track bool
	fb    compiler.Feedback
}

func (a *congestionAgg) add(set *runner.ShotSet) {
	if len(set.Shots) == 0 {
		return
	}
	digests := make([]netDigest, len(set.Shots))
	for i, shot := range set.Shots {
		digests[i] = digestOf(shot.Result)
	}
	folded, _ := runner.TreeReduce(digests, digestGrain, netDigest.merge)
	a.net = a.net.merge(folded)
	if a.track {
		// Per-link attribution feeds the re-place loop; Feedback's maps make
		// a per-shot copy too heavy for the tree, so absorption stays linear
		// (Absorb is commutative, determinism is unaffected).
		for _, shot := range set.Shots {
			if shot.Result.Net.Enabled {
				a.fb.Absorb(shot.Result.Net, shot.Result.RouterUtilization)
			}
		}
	}
}

// merge combines two aggregates. The receiver's track flag wins; b's
// feedback is merged in either way.
func (a congestionAgg) merge(b congestionAgg) congestionAgg {
	a.net = a.net.merge(b.net)
	a.fb.Merge(&b.fb)
	return a
}

// aggregate folds the congestion of every shot of every point a job ran (a
// plain job is one point). Per-point aggregates fold over the host
// reduction tree, mirroring the per-shot fold inside add.
func aggregate(pts []runner.SweepPoint, track bool) congestionAgg {
	aggs := make([]congestionAgg, len(pts))
	for i, p := range pts {
		aggs[i] = congestionAgg{track: track}
		aggs[i].add(p.Set)
	}
	agg, _ := runner.TreeReduce(aggs, digestGrain, congestionAgg.merge)
	return agg
}

// foldCongestion merges aggregated congestion into the service stats.
// Called with s.mu held.
func (s *Service) foldCongestion(a congestionAgg) {
	s.stats.NetStallCycles += a.net.stall
	s.stats.NetMessages += a.net.messages
	s.stats.NetOverflows += a.net.overflows
	s.stats.NetCollectiveOps += a.net.collOps
	s.stats.NetCollectiveStall += a.net.collStall
	if a.net.maxQueue > s.stats.NetMaxQueue {
		s.stats.NetMaxQueue = a.net.maxQueue
	}
}

// maybeReplace folds a finished job's feedback into its pool group and,
// once the group's aggregated stall crosses the configured threshold,
// re-places it: search for a measurably better mapping (machine.RePlace),
// recompile under it, and swap the group's replicas. Runs on the worker
// goroutine outside s.mu — the search compiles and probes.
func (s *Service) maybeReplace(j *job, p plan, fb compiler.Feedback) {
	if s.cfg.ReplaceStallThreshold == 0 {
		return
	}
	s.mu.Lock()
	fs := s.feedback[j.pk]
	if fs == nil {
		if !s.pool.holds(j.pk) {
			// Evicted since this job checked its replicas in: forget has
			// run for the group, and nothing would delete a new entry.
			s.mu.Unlock()
			return
		}
		fs = &feedbackState{}
		s.feedback[j.pk] = fs
	}
	fs.fb.Merge(&fb)
	if fs.replaced || uint64(fs.fb.TotalStall) < s.cfg.ReplaceStallThreshold {
		s.mu.Unlock()
		return
	}
	fs.replaced = true // one-shot claim: a group is re-placed at most once
	snapshot := fs.fb
	s.mu.Unlock()

	cp, err := s.rePlace(j, p, &snapshot)
	if err != nil || cp == nil {
		return // the search kept the incumbent (or failed): nothing to swap
	}
	s.mu.Lock()
	fs.artifact = cp
	s.stats.Replacements++
	s.mu.Unlock()
	// Drop the stale warm replicas; the group's next job rebuilds from the
	// re-placed artifact under the unchanged pool key, so a sweep family
	// keeps its bind cache and its batching.
	s.pool.drop(j.pk)
}

// forget drops the re-place state of the groups the pool just evicted:
// the accumulated feedback and any re-placed artifact go with the replicas,
// and a group that comes back starts over, which is what LRU means. Without
// it s.feedback grows by one entry per distinct circuit ever served.
func (s *Service) forget(evicted []poolKey) {
	if len(evicted) == 0 || s.cfg.ReplaceStallThreshold == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pk := range evicted {
		delete(s.feedback, pk)
	}
}

// rePlace computes the re-placed artifact for j's pool group: probe-search
// a mapping with lower measured fabric stall under the accumulated
// feedback, then compile the job's circuit (the unbound skeleton, for bind
// jobs) with it. Returns nil when the search kept the incumbent mapping.
// The re-placed artifact caches under its own fingerprint — the original
// entry is never overwritten, so the content-addressed cache stays honest.
func (s *Service) rePlace(j *job, p plan, fb *compiler.Feedback) (*compiler.Compiled, error) {
	probeCirc := j.spec.Circuit
	if first := p.points[0]; first != nil {
		// Probes need a runnable circuit; the first binding of the family
		// is the deterministic stand-in for its traffic.
		bound, err := probeCirc.Bind(first)
		if err != nil {
			return nil, err
		}
		probeCirc = bound
	}
	j.mu.Lock()
	prior := append([]int(nil), j.mapping...) // nil stays nil (= identity)
	j.mu.Unlock()
	newMap, _, err := machine.RePlace(probeCirc, j.spec.Cfg, prior, fb)
	if err != nil {
		return nil, err
	}
	if sameMapping(newMap, prior) {
		return nil, nil
	}
	return machine.Compile(j.spec.Circuit, newMap, j.spec.Cfg, p.structural)
}

// replacedArtifact returns the re-placed artifact for a pool group (nil
// when the group was never re-placed).
func (s *Service) replacedArtifact(pk poolKey) *compiler.Compiled {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs := s.feedback[pk]; fs != nil {
		return fs.artifact
	}
	return nil
}

// sameMapping compares a mapping against a prior one, treating a nil
// prior as the identity.
func sameMapping(m, prior []int) bool {
	if m == nil {
		return prior == nil
	}
	for q, c := range m {
		want := q
		if prior != nil {
			if q >= len(prior) {
				return false
			}
			want = prior[q]
		}
		if c != want {
			return false
		}
	}
	return prior == nil || len(m) == len(prior)
}

// retire records a finished job and forgets the oldest-finished beyond
// the retention bound. Called with s.mu held. A waiter that already
// holds the *job keeps it alive until it reads the status; only the
// service's own reference is dropped.
func (s *Service) retire(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > s.cfg.MaxRetainedJobs {
		oldest := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, oldest)
	}
}

// plan is everything the one execution path varies on. A job's kind —
// plain, Params or Sweep — reduces to these fields; run never asks which
// kind it was handed.
type plan struct {
	// structural is the key kind: the bind-invariant skeleton (Params and
	// Sweep jobs, patched per point by BindParams) or the full program.
	structural bool
	// sweep jobs deliver per-point results: points, not shots, are the
	// unit that fans out across replicas, and each streams as it finishes.
	sweep bool
	// points is the work: one unbound (nil) point for a plain job, one
	// binding for Params, N for a Sweep.
	points []map[string]float64
	want   int // replicas: ShotWorkers, capped at the fan-out units there are
}

func (s *Service) planFor(req Request) plan {
	p := plan{
		structural: req.bindJob(), sweep: len(req.Sweep) > 0,
		points: []map[string]float64{req.Params}, want: req.Shots,
	}
	if p.sweep {
		p.points, p.want = req.Sweep, len(req.Sweep)
	}
	if p.want > s.cfg.ShotWorkers {
		p.want = s.cfg.ShotWorkers
	}
	return p
}

// result is what run observed and produced. cacheHit and batched are set as
// they are observed, so a failed job reports them however far it got.
type result struct {
	set               *runner.ShotSet // plain and Params jobs
	points            []PointStatus   // sweep jobs, in index order (complete only on success)
	net               congestionAgg
	tape              machine.TapeStats // what the job's shots did on its replicas' tapes
	cacheHit, batched bool
	mapping           []int // final qubit→controller mapping (nil = identity)
}

// run executes one job: acquire the plan's replicas (pool checkout, the
// artifact, build the shortfall), run the plan's points on them with the
// runner's deterministic merge, and release in one deferred step that owns
// every unwind. Replicas pool under the job's fingerprint — the structural
// one for bind jobs, so a 1000-point sweep or 1000 single-binding jobs
// compile once and reuse the same warm machines.
func (s *Service) run(j *job, p plan) (res result, err error) {
	var machines []*machine.Machine
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job %s: %w", j.id, &runner.PanicError{Value: r})
		}
		if len(machines) > 0 && machines[0].Loaded() != nil {
			// Echo the final mapping off the loaded artifact. Copied: the
			// artifact is cached process-wide, and JobStatus hands the slice
			// to callers free to mutate it.
			res.mapping = append([]int(nil), machines[0].Loaded().Mapping...)
		}
		// A replica that panicked mid-run is in an unknown state: the
		// checked-out machines are dropped, never pooled.
		var panicked *runner.PanicError
		if !errors.As(err, &panicked) {
			s.forget(s.pool.checkin(j.pk, machines))
		}
	}()

	machines = s.pool.checkout(j.pk, p.want)
	res.batched = len(machines) > 0
	// Acquire the artifact once, under the fingerprint admission computed —
	// nothing below hashes the circuit again. One probe of the cache (and
	// the store under it) per job, so misses always equal actual compiles.
	arts := j.spec.Cfg.Artifacts
	var art *compiler.Compiled
	switch ov := s.replacedArtifact(j.pk); {
	case ov != nil:
		// The group was re-placed: run from the swapped artifact (a hit —
		// nothing compiles). A replica pooled before the swap still holds
		// the old program; RunPoints re-Loads what is not loaded with art.
		art, res.cacheHit = ov, true
	case len(machines) == 0:
		// Cold: compile the job's program — the skeleton as submitted, for a
		// bind job — unless the cache, its store or a concurrent job has it.
		art, res.cacheHit, err = arts.GetOrCompile(j.pk.fp, func() (*compiler.Compiled, error) {
			return machine.CompileUncached(j.spec.Circuit, j.spec.Mapping, j.spec.Cfg)
		})
		if err != nil {
			return res, err
		}
	default:
		// Warm replicas: a present entry counts one hit and stays MRU while
		// its replicas are hot. An evicted one compiles nothing (an artifact
		// can outlive its cache entry in the pool): run, and build any
		// shortfall from, what is loaded — for a bind job a previous binding
		// of the same skeleton, whose parameter slots survive re-binding.
		if art, res.cacheHit = arts.Get(j.pk.fp); !res.cacheHit {
			art = machines[0].Loaded()
		}
	}
	if machines, err = runner.Replicas(j.spec, machines, art, p.want); err != nil {
		return res, err
	}

	var observe func(runner.SweepPoint)
	if p.sweep {
		// The observer runs on the runner's worker goroutines: each point
		// is published to streaming watchers the moment it finishes, while
		// later points are still executing. A sweep retains this snapshot
		// (histogram + makespan) per point and drops the full shot sets, so
		// a long-lived daemon's retention bound stays a bound.
		res.points = make([]PointStatus, len(p.points))
		observe = func(pt runner.SweepPoint) {
			res.points[pt.Index] = pointStatusOf(pt)
			j.publish(res.points[pt.Index])
		}
	}
	before := tapeTotal(machines)
	pts, err := runner.RunPoints(j.spec, machines, art, p.points, j.shots, observe)
	after := tapeTotal(machines)
	res.tape = machine.TapeStats{Replayed: after.Replayed - before.Replayed, Fallbacks: after.Fallbacks - before.Fallbacks}
	if err != nil {
		return res, err
	}
	// Congestion is aggregated here, outside the service lock and before a
	// sweep's per-shot data goes away; the per-link feedback only when the
	// re-place loop is on to consume it.
	res.net = aggregate(pts, s.cfg.ReplaceStallThreshold > 0)
	if !p.sweep {
		res.set = pts[0].Set
	}
	return res, nil
}

// tapeTotal sums the replicas' lifetime tape counters; run reports a job's
// share as the difference across its RunPoints call.
func tapeTotal(machines []*machine.Machine) (sum machine.TapeStats) {
	for _, m := range machines {
		st := m.TapeStats()
		sum.Replayed += st.Replayed
		sum.Fallbacks += st.Fallbacks
	}
	return sum
}

// finish moves the job to its terminal state. Everything status() derives
// from the results — histogram, makespan, EPR total — is computed here,
// once, not per poll.
func (j *job) finish(res result, err error) {
	j.mu.Lock()
	j.cacheHit, j.batched, j.mapping = res.cacheHit, res.batched, res.mapping
	switch {
	case err != nil:
		j.state = StateFailed
		j.err = err
	case res.set != nil:
		j.state = StateDone
		j.set = res.set
		j.hist = res.set.Histogram()
		if len(res.set.Shots) > 0 {
			j.makespan = int64(res.set.Shots[0].Result.Makespan)
		}
		for _, shot := range res.set.Shots {
			j.eprPairs += shot.Result.EPRPairs
		}
	default: // sweep jobs deliver per-point results instead
		j.state = StateDone
		j.points = res.points
		j.makespan = res.points[0].Makespan
	}
	j.mu.Unlock()
	close(j.done)
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Shots: j.shots, Seed: j.seed,
		Fingerprint: j.pk.fp.String(), CacheHit: j.cacheHit, Batched: j.batched,
		MeshW: j.meshW, MeshH: j.meshH,
		Placement: j.placement, Schedule: j.schedule, Mapping: j.mapping,
		Chips: j.chips, EPRPairs: j.eprPairs, Makespan: j.makespan,
		Set: j.set, Histogram: j.hist, Points: j.points,
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// replicaPool keeps loaded machines warm, grouped by artifact
// fingerprint, bounded by a global replica budget (which bounds the groups
// it knows too: one may be empty, its replicas checked out or dropped) with
// LRU group eviction. Checkout removes machines from the pool (a machine is
// never shared by two running jobs); checkin returns them.
type replicaPool struct {
	mu     sync.Mutex
	budget int
	groups map[poolKey][]*machine.Machine
	order  []poolKey // front = most recently used
	total  int
}

func newReplicaPool(budget int) *replicaPool {
	return &replicaPool{budget: budget, groups: make(map[poolKey][]*machine.Machine)}
}

func (p *replicaPool) touch(fp poolKey) {
	for i, f := range p.order {
		if f == fp {
			copy(p.order[1:i+1], p.order[:i])
			p.order[0] = fp
			return
		}
	}
	p.order = append([]poolKey{fp}, p.order...)
}

// checkout takes up to want machines pooled for fp.
func (p *replicaPool) checkout(fp poolKey, want int) []*machine.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.groups[fp]
	if len(g) == 0 {
		return nil
	}
	n := want
	if n > len(g) {
		n = len(g)
	}
	// Copy out: the truncated group keeps its backing array, so handing
	// the caller a sub-slice would let a later checkin append into the
	// very machines the caller is still running on.
	out := make([]*machine.Machine, n)
	copy(out, g[len(g)-n:])
	for i := len(g) - n; i < len(g); i++ {
		g[i] = nil
	}
	p.groups[fp] = g[:len(g)-n]
	p.total -= n
	p.touch(fp)
	return out
}

// checkin returns machines to fp's group, evicting least recently used
// groups if the global budget is exceeded; it reports the groups evicted.
func (p *replicaPool) checkin(fp poolKey, machines []*machine.Machine) (evicted []poolKey) {
	if len(machines) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.groups[fp] = append(p.groups[fp], machines...)
	p.total += len(machines)
	p.touch(fp)
	for p.total > p.budget || len(p.order) > p.budget {
		victim := p.order[len(p.order)-1]
		if victim == fp && len(p.order) == 1 {
			// Only the active group remains: trim it instead, nil-ing the
			// dropped slots so the backing array releases the machines.
			g := p.groups[fp]
			drop := p.total - p.budget
			if drop > len(g) {
				drop = len(g)
			}
			for i := len(g) - drop; i < len(g); i++ {
				g[i] = nil
			}
			p.groups[fp] = g[:len(g)-drop]
			p.total -= drop
			break
		}
		p.total -= len(p.groups[victim])
		delete(p.groups, victim)
		p.order = p.order[:len(p.order)-1]
		evicted = append(evicted, victim)
	}
	return evicted
}

// drop discards fp's pooled replicas: they are loaded with an artifact the
// re-place path just superseded, and running them would mean running the
// old placement. The group keeps its place in the LRU order, so that it is
// still evicted, and its re-place state forgotten, in its turn.
func (p *replicaPool) drop(fp poolKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if g, ok := p.groups[fp]; ok {
		p.total -= len(g)
		p.groups[fp] = nil
	}
}

// holds reports whether the pool knows fp's group, empty or not.
func (p *replicaPool) holds(fp poolKey) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.groups[fp]
	return ok
}

func (p *replicaPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}
