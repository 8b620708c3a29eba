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
// and each replica's shots fold into a runner.Tally that merges in any
// order — so a job's tally, outcome digest included, is identical whether
// it ran on one pooled replica or four, cold cache or warm.
package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"dhisq/internal/artifact"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/runner"
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the number of jobs executed concurrently (<= 0 picks
	// GOMAXPROCS/2, minimum 1). A job that starts while workers idle also
	// fans out across their ShotWorkers shares.
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs;
	// Submit fails with ErrQueueFull beyond it (<= 0 means 64).
	QueueDepth int
	// ShotWorkers is the replicas a job is guaranteed for its shots or
	// sweep points to fan out across (<= 0 means 1). A job gets
	// max(ShotWorkers, Workers×ShotWorkers − the replicas running jobs
	// hold), decided once at its start and capped by its fan-out units.
	// At most (2·Workers−1)·ShotWorkers replicas run at once: the whole
	// Workers×ShotWorkers of a job that started alone, plus the share
	// guaranteed to each job that started beside it.
	ShotWorkers int
	// Seed is the service base seed: job n with no explicit seed runs
	// with machine.DeriveSeed(Seed, n) (0 means 1).
	Seed int64
	// Artifacts is the compiled-artifact cache this service compiles
	// through (nil = the process-wide artifact.Shared). A service with a
	// private cache — typically one with an on-disk store attached via
	// artifact.Cache.SetStore — keeps its compile accounting and its
	// restart-warm behavior independent of everything else in the process,
	// which is what the in-process cluster and crash/restart tests need.
	Artifacts *artifact.Cache
	// IDPrefix is prepended to every job ID. IDs are a per-service
	// counter, so the shards of a dhisq-serve cluster each set their own
	// prefix to keep one shard's IDs from naming another shard's jobs.
	IDPrefix string
}

// The service's memory bounds. They are constants: no deployment has
// needed another value.
const (
	// PooledReplicasPerWorker bounds the loaded machines kept warm across
	// all artifacts at this many per worker, or at Workers×ShotWorkers if
	// that is more, so a lone job's full fan-out survives checkin. Over
	// it, pools are trimmed to ShotWorkers replicas, then least recently
	// used artifact pools are dropped.
	PooledReplicasPerWorker = 4
	// MaxRetainedJobs bounds how many finished jobs stay queryable.
	// Oldest-finished are forgotten first, so a long-lived daemon's memory
	// does not grow with total traffic; a Get/Wait for a forgotten job
	// reports not-found.
	MaxRetainedJobs = 4096
	// MaxSweepPoints bounds the points one sweep job may carry. The job
	// queue bounds jobs, not work: without this cap a single submission
	// could monopolize a worker forever and retain an unbounded Points
	// snapshot past completion.
	MaxSweepPoints = 4096
)

// ErrQueueFull is returned by Submit when the bounded queue is at depth.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// Service is the job manager. Construct with New, stop with Close.
type Service struct {
	cfg   Config
	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // completion order, oldest first (retention bound)
	nextID   uint64
	closed   bool
	stats    Stats
	net      network.CongestionStats // every completed job's digest, merged
	held     int                     // replicas the running jobs' plans hold
	pool     *replicaPool            // its own lock; never taken with mu held
	memo     admitMemo               // Admit's; its own lock

	wg sync.WaitGroup
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
	if cfg.Artifacts == nil {
		cfg.Artifacts = artifact.Shared
	}
	s := &Service{
		cfg:   cfg,
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  make(map[string]*job),
		pool:  newReplicaPool(cfg.Workers*max(PooledReplicasPerWorker, cfg.ShotWorkers), cfg.ShotWorkers),
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
	if len(a.Req.Sweep) > MaxSweepPoints {
		return "", fmt.Errorf("service: sweep has %d points, limit %d (split it into multiple jobs — they share the compiled skeleton anyway)",
			len(a.Req.Sweep), MaxSweepPoints)
	}
	cfg := &a.Spec.Cfg
	j := &job{
		// What the status echoes of the submission is copied out here, once:
		// the admission itself goes when the worker is done with it.
		st: JobStatus{
			State: StateQueued, Shots: a.Req.Shots, Fingerprint: a.Fingerprint.String(),
			MeshW: a.Spec.MeshW, MeshH: a.Spec.MeshH, Chips: cfg.Chips,
			Placement: cfg.Placement,
		},
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
	id := fmt.Sprintf("%sjob-%06d", s.cfg.IDPrefix, n)
	j.st.ID, j.st.Seed = id, cfg.Seed
	j.adm = a
	select {
	case s.queue <- j:
	default:
		s.nextID = n // roll the ID back so rejects don't burn seeds
		s.stats.Rejected++
		s.mu.Unlock()
		return "", ErrQueueFull
	}
	s.jobs[id] = j
	s.stats.Submitted++
	s.mu.Unlock()
	return id, nil
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
		st, _ := j.status() // the worker's copy of the record, stored back by record and finish
		s.mu.Lock()
		if s.closed {
			// Drain: jobs admitted before Close but not started fail
			// deterministically instead of hanging their waiters.
			s.stats.Failed++
			s.retire(st.ID)
			s.mu.Unlock()
			j.finish(st, fmt.Errorf("service: shut down before job started"))
			continue
		}
		s.stats.Running++
		p := s.planFor(j.adm)
		s.held += p.want
		s.mu.Unlock()
		st.State = StateRunning
		j.record(st)

		res, err := s.run(j, p, &st) // recovers its own panics

		s.mu.Lock()
		s.stats.Running--
		s.held -= p.want
		s.stats.TapedShots += res.tape.Replayed
		s.stats.TapeFallbacks += res.tape.Fallbacks
		if err != nil {
			s.stats.Failed++
		} else {
			s.stats.Completed++
			if st.Batched {
				s.stats.BatchedJobs++
			}
			if p.structural {
				s.stats.Binds += uint64(len(p.points))
				if st.CacheHit {
					s.stats.BindHits++
				}
			}
			s.net = s.net.Merge(res.net)
		}
		s.retire(st.ID)
		s.mu.Unlock()
		// Waiters wake only now, so a Stats call that follows a Wait sees
		// this job counted.
		j.finish(st, err)
	}
}

// retire records a finished job and forgets the oldest-finished beyond
// the retention bound. Called with s.mu held. A waiter that already
// holds the *job keeps it alive until it reads the status; only the
// service's own reference is dropped.
func (s *Service) retire(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > MaxRetainedJobs {
		oldest := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, oldest)
	}
}

// plan is everything the one execution path varies on. A job's kind —
// plain, Params or Sweep — reduces to these fields; run never asks which
// kind it was handed.
type plan struct {
	fp artifact.Fingerprint // the pool group the job's replicas come from and return to
	// structural is the key kind: the bind-invariant skeleton (Params and
	// Sweep jobs, patched per point by BindParams) or the full program.
	structural bool
	// sweep jobs deliver per-point results, each streamed as it finishes.
	sweep bool
	// points is the work: one unbound (nil) point for a plain job, one
	// binding for Params, N for a Sweep.
	points []map[string]float64
	// want is the replicas: ShotWorkers or the idle budget, capped at the
	// fan-out units — the points when there are several, else the shots.
	want int
}

// planFor is a's plan, with the replicas it may hold decided now, once:
// ShotWorkers, or what the running jobs leave of Workers×ShotWorkers,
// whichever is more. Called with s.mu held.
func (s *Service) planFor(a Admission) plan {
	req := a.Req
	p := plan{
		fp: a.Fingerprint, structural: req.bindJob(), sweep: len(req.Sweep) > 0,
		points: []map[string]float64{req.Params}, want: req.Shots,
	}
	if p.sweep {
		p.points = req.Sweep
	}
	if len(p.points) > 1 {
		p.want = len(p.points)
	}
	p.want = min(p.want, max(s.cfg.ShotWorkers, s.cfg.Workers*s.cfg.ShotWorkers-s.held))
	return p
}

// result is what a run cost on what jobs share, for the worker to fold into
// Stats: its shots' merged fabric congestion (only from a successful run)
// and what they did on its replicas' tapes. What the job itself reports
// goes into its JobStatus.
type result struct {
	net  network.CongestionStats
	tape machine.TapeStats
}

// run executes one job: acquire the plan's replicas (pool checkout, the
// artifact, build the shortfall), run the plan's points on them with the
// runner's deterministic merge, and release in one deferred step that owns
// every unwind. Replicas pool under the job's fingerprint — the structural
// one for bind jobs, so a 1000-point sweep or 1000 single-binding jobs
// compile once and reuse the same warm machines. st is the worker's copy of
// the job's record: CacheHit and Batched are set as they are observed, so a
// failed job reports them however far it got; Tally or Points only on
// success.
func (s *Service) run(j *job, p plan, st *JobStatus) (res result, err error) {
	spec := j.adm.Spec
	var machines []*machine.Machine
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job %s: %w", st.ID, &runner.PanicError{Value: r})
		}
		if len(machines) > 0 && machines[0].Loaded() != nil {
			// Echo the final mapping off the loaded artifact. Copied: the
			// artifact is cached process-wide, and JobStatus hands the slice
			// to callers free to mutate it.
			st.Mapping = append([]int(nil), machines[0].Loaded().Mapping...)
		}
		// A replica that panicked mid-run is in an unknown state: the
		// checked-out machines are dropped, never pooled.
		var panicked *runner.PanicError
		if !errors.As(err, &panicked) {
			s.pool.checkin(p.fp, machines)
		}
	}()

	machines = s.pool.checkout(p.fp, p.want)
	st.Batched = len(machines) > 0
	// Acquire the artifact once, under the fingerprint admission computed —
	// nothing below hashes the circuit again. One probe of the cache (and
	// the store under it) per job, so misses always equal actual compiles.
	arts := s.cfg.Artifacts
	var art *compiler.Compiled
	if len(machines) == 0 {
		// Cold: compile the job's program — the skeleton as submitted, for a
		// bind job — unless the cache, its store or a concurrent job has it.
		art, st.CacheHit, err = arts.GetOrCompile(p.fp, func() (*compiler.Compiled, error) {
			return machine.CompileUncached(spec.Circuit, spec.Mapping, spec.Cfg)
		})
		if err != nil {
			return res, err
		}
	} else {
		// Warm replicas: a present entry counts one hit and stays MRU while
		// its replicas are hot. An evicted one compiles nothing (an artifact
		// can outlive its cache entry in the pool): run, and build any
		// shortfall from, what is loaded — for a bind job a previous binding
		// of the same skeleton, whose parameter slots survive re-binding.
		if art, st.CacheHit = arts.Get(p.fp); !st.CacheHit {
			art = machines[0].Loaded()
		}
	}
	if machines, err = runner.Replicas(spec, machines, art, p.want); err != nil {
		return res, err
	}

	var points []PointStatus // sweep jobs, in index order
	var observe func(int, runner.Tally)
	if p.sweep {
		// The observer runs on the runner's worker goroutines: each point
		// is published to streaming watchers the moment it finishes, while
		// later points are still executing.
		points = make([]PointStatus, len(p.points))
		observe = func(k int, t runner.Tally) {
			points[k] = pointStatusOf(k, p.points[k], t)
			j.publish(points[k])
		}
	}
	before := tapeTotal(machines)
	tallies, err := runner.RunPoints(machines, art, spec.Cfg.Seed, p.points, st.Shots, runner.Observer{Point: observe})
	after := tapeTotal(machines)
	res.tape = machine.TapeStats{Replayed: after.Replayed - before.Replayed, Fallbacks: after.Fallbacks - before.Fallbacks}
	if err != nil {
		return res, err
	}
	for _, t := range tallies {
		res.net = res.net.Merge(t.Net)
	}
	st.Points = points // nil unless a sweep
	if !p.sweep {
		st.Tally = &tallies[0]
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
