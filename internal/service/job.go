package service

import (
	"context"
	"sync"

	"dhisq/internal/runner"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// JobStatus is a point-in-time snapshot of a job, safe to retain. Its JSON
// form is the job response of dhisq-serve's GET /v1/jobs/{id}. It is also
// the one record a job keeps of itself: Enqueue fills what echoes the
// submission, run what it observes, finish what derives from the results.
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

type job struct {
	// adm is the resolved submission — request, run spec (the parsed
	// circuit, ~300 KB for a 30-qubit QFT) and fingerprint. It belongs to the
	// worker: release drops it once the job is past the re-place loop, so
	// the MaxRetainedJobs finished jobs kept for polling retain results only.
	adm Admission

	mu sync.Mutex
	st JobStatus // everything the job reports; status() hands out copies
	// streamed holds sweep points in completion order as they finish —
	// the publication log Stream cursors over while the job still runs.
	// notify is closed and replaced under mu on every publish, so any
	// number of streaming watchers can wait for "something new" without
	// polling and without a Cond (a channel honors context cancellation).
	streamed []PointStatus
	notify   chan struct{}
	done     chan struct{}
}

// release drops the job's admission. Called by the worker that owned the
// job, after its last use of it.
func (j *job) release() {
	j.mu.Lock()
	j.adm = Admission{}
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

// record stores st, the worker's copy of the record; from the queue on, the
// worker is its only writer.
func (j *job) record(st JobStatus) {
	j.mu.Lock()
	j.st = st
	j.mu.Unlock()
}

// finish moves the job to its terminal state. What derives from the results
// — histogram, makespan, EPR total — is computed here, once, not per poll.
func (j *job) finish(st JobStatus, err error) {
	switch {
	case err != nil:
		st.State, st.Err = StateFailed, err.Error()
	case st.Set != nil:
		st.State = StateDone
		st.Histogram = st.Set.Histogram()
		if len(st.Set.Shots) > 0 {
			st.Makespan = int64(st.Set.Shots[0].Result.Makespan)
		}
		for _, shot := range st.Set.Shots {
			st.EPRPairs += shot.Result.EPRPairs
		}
	default: // sweep jobs deliver per-point results instead
		st.State = StateDone
		st.Makespan = st.Points[0].Makespan
	}
	j.record(st)
	close(j.done)
}

// status snapshots the job. A nil job — an ID the service does not hold —
// reports false: the not-found contract of Get and Wait, which Stream
// follows.
func (j *job) status() (JobStatus, bool) {
	if j == nil {
		return JobStatus{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st, true
}

// lookup returns the retained job with this ID, nil when there is none.
func (s *Service) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Get snapshots a job by ID.
func (s *Service) Get(id string) (JobStatus, bool) { return s.lookup(id).status() }

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
	j := s.lookup(id)
	if j != nil {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
	}
	return j.status()
}

// Stream delivers a job's sweep points to fn as they finish — completion
// order, not submission order (PointStatus.Index carries the position) —
// and returns the job's terminal snapshot once it finishes. The
// false return means the job ID is unknown (same contract as Get/Wait).
//
// Any number of watchers may stream one job concurrently, attaching at
// any time: each gets every point from the beginning (the points already
// finished replay immediately, then the live tail). A cancelled context
// stops the stream early and returns the job's snapshot at that moment —
// the caller distinguishes "finished" from "gave up" by JobStatus.Done(),
// exactly like WaitContext. fn is called from the watcher's goroutine,
// never concurrently with itself.
//
// Non-sweep jobs have no points: Stream then degrades to WaitContext,
// returning the terminal snapshot with fn never called.
func (s *Service) Stream(ctx context.Context, id string, fn func(PointStatus)) (JobStatus, bool) {
	j := s.lookup(id)
	if j == nil {
		return JobStatus{}, false
	}
	for cursor, final := 0, false; ; {
		// Hand fn everything published past the cursor. The snapshot is
		// taken under j.mu but fn runs outside it: a slow consumer (an HTTP
		// watcher on a congested connection) must never stall the workers
		// publishing points.
		j.mu.Lock()
		fresh, notify := j.streamed[cursor:], j.notify
		j.mu.Unlock()
		cursor += len(fresh)
		for _, p := range fresh {
			fn(p)
		}
		if final {
			return j.status()
		}
		select {
		case <-j.done:
			// Every publish happens before finish closes done, so one
			// final drain observes the complete stream.
			final = true
		case <-ctx.Done():
			return j.status()
		case <-notify:
			// New points landed (the channel we held was closed and
			// replaced); loop to deliver them.
		}
	}
}
