package service

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
)

func ghz(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	for q := 0; q < n-1; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// Jobs without an explicit seed draw distinct seeds from the service
// stream, and the stream is deterministic per admission index.
func TestPerJobSeeds(t *testing.T) {
	s := New(Config{Workers: 1, Seed: 7})
	defer s.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.Submit(Request{Circuit: ghz(3), Shots: 2})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	seen := map[int64]bool{}
	for i, id := range ids {
		st, _ := s.Wait(id)
		if st.State != StateDone {
			t.Fatalf("job %d: %s %q", i, st.State, st.Err)
		}
		if want := machine.DeriveSeed(7, i); st.Seed != want {
			t.Fatalf("job %d seed %d, want DeriveSeed(7,%d)=%d", i, st.Seed, i, want)
		}
		if seen[st.Seed] {
			t.Fatalf("seed %d reused across jobs", st.Seed)
		}
		seen[st.Seed] = true
	}
}

// The second job for the same circuit must hit the artifact cache and
// batch onto the replicas the first job warmed.
func TestRepeatCircuitBatches(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	first, err := s.Submit(Request{Circuit: ghz(4), Shots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Wait(first); st.State != StateDone {
		t.Fatalf("first job failed: %q", st.Err)
	}
	second, err := s.Submit(Request{Circuit: ghz(4), Shots: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Wait(second)
	if st.State != StateDone {
		t.Fatalf("second job failed: %q", st.Err)
	}
	if !st.CacheHit {
		t.Fatal("second identical job missed the artifact cache")
	}
	if !st.Batched {
		t.Fatal("second identical job did not reuse pooled replicas")
	}
	if stats := s.Stats(); stats.BatchedJobs < 1 {
		t.Fatalf("stats.BatchedJobs = %d, want >= 1", stats.BatchedJobs)
	}

	// A different circuit must not be batched onto those replicas.
	other, err := s.Submit(Request{Circuit: ghz(5), Shots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Wait(other); st.Batched {
		t.Fatal("distinct circuit claimed pooled replicas")
	}
}

// A default job and its named-default twin are one program: naming the
// placement policy "" resolves to (identity) must not fingerprint, compile
// or pool it a second time.
func TestNamedDefaultsShareTheDefaultProgram(t *testing.T) {
	arts := artifact.New(4)
	s := New(Config{Workers: 1, Artifacts: arts})
	defer s.Close()

	first := submitWait(t, s, Request{Circuit: ghz(4), Shots: 4, Seed: 3})
	named := submitWait(t, s, Request{Circuit: ghz(4), Shots: 4, Seed: 3, Placement: placement.Default})
	if named.Fingerprint != first.Fingerprint {
		t.Fatalf("named defaults fingerprint %s, default job %s", named.Fingerprint, first.Fingerprint)
	}
	if !named.CacheHit || !named.Batched {
		t.Fatalf("named-default twin: cache hit %v, batched %v; want both", named.CacheHit, named.Batched)
	}
	if misses := arts.Stats().Misses; misses != 1 {
		t.Fatalf("%d compiles for one program, want 1", misses)
	}
}

// The queue is bounded: once Workers are busy and QueueDepth jobs wait,
// Submit rejects with ErrQueueFull instead of blocking.
func TestQueueBound(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	// Occupy the worker long enough to observe the bound (the first job
	// may be picked up instantly, freeing one queue slot).
	if _, err := s.Submit(Request{Circuit: ghz(4), Shots: 800}); err != nil {
		t.Fatal(err)
	}
	var full bool
	for i := 0; i < 3; i++ {
		_, err := s.Submit(Request{Circuit: ghz(4), Shots: 800})
		if errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("queue never filled: 3 submissions on a depth-1 queue with a busy worker")
	}
	if stats := s.Stats(); stats.Rejected < 1 {
		t.Fatalf("stats.Rejected = %d, want >= 1", stats.Rejected)
	}
}

// Submit after Close fails; queued work still completes or fails
// deterministically, and Close is idempotent.
func TestClose(t *testing.T) {
	s := New(Config{Workers: 1})
	id, err := s.Submit(Request{Circuit: ghz(3), Shots: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if _, err := s.Submit(Request{Circuit: ghz(3), Shots: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	st, ok := s.Get(id)
	if !ok || !st.Done() {
		t.Fatalf("pre-Close job not terminal: ok=%v state=%s", ok, st.State)
	}
}

// A job whose artifact was compiled elsewhere in the process (a prior
// facade run, another experiment) is a cache hit on its very first
// submission: the hit counter increments and no compile happens.
func TestPrewarmedCacheHit(t *testing.T) {
	c := ghz(6)
	cfg := machine.DefaultConfig(6)
	m, err := machine.NewForCircuit(c, 3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.Compile(c, nil, m.Cfg, false); err != nil { // populate the shared cache
		t.Fatal(err)
	}
	before := artifact.Shared.Stats()

	s := New(Config{Workers: 1})
	defer s.Close()
	id, err := s.Submit(Request{Circuit: ghz(6), MeshW: 3, MeshH: 2, Shots: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Wait(id)
	if st.State != StateDone {
		t.Fatalf("state %s: %q", st.State, st.Err)
	}
	if !st.CacheHit {
		t.Fatal("first submission of a pre-compiled circuit missed the cache")
	}
	after := artifact.Shared.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("pre-warmed job compiled anyway: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits <= before.Hits {
		t.Fatalf("pre-warmed job did not count a hit: hits %d -> %d", before.Hits, after.Hits)
	}
}

// Finished jobs beyond the retention bound are forgotten oldest-first,
// so a long-lived service does not accumulate every result ever run.
func TestRetentionBound(t *testing.T) {
	const over = 2
	s := New(Config{Workers: 1, QueueDepth: MaxRetainedJobs + over})
	defer s.Close()

	var ids []string
	for i := 0; i < MaxRetainedJobs+over; i++ {
		id, err := s.Submit(Request{Circuit: ghz(3), Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// One worker runs the queue in order, so the last job finishes last.
	if st, _ := s.Wait(ids[len(ids)-1]); st.State != StateDone {
		t.Fatalf("last job failed: %q", st.Err)
	}
	for i, id := range ids {
		_, ok := s.Get(id)
		if want := i >= over; ok != want {
			t.Fatalf("job %d (%s): retained=%v, want %v", i, id, ok, want)
		}
	}
}

// A finished job is retained for polling, its circuit is not: once the
// worker is done with it the job holds results and four scalars, so the
// retained history does not pin every parsed circuit it ever ran.
func TestFinishedJobReleasesCircuit(t *testing.T) {
	s := New(Config{Workers: 1})
	sweep := circuit.New(2)
	sweep.RYSym(0, "t").CNOT(0, 1).MeasureInto(0, 0).MeasureInto(1, 1)
	ids := make([]string, 0, 3)
	for _, req := range []Request{
		{Circuit: ghz(4), Shots: 3},
		{Circuit: ghz(4), Shots: 2, Chips: 2},
		{Circuit: sweep, Shots: 2, Sweep: []map[string]float64{{"t": 0.1}, {"t": 0.2}}},
	} {
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := s.Wait(id); st.State != StateDone {
			t.Fatalf("%s failed: %q", id, st.Err)
		}
		ids = append(ids, id)
	}
	// finish drops the admission before Wait returns; Close waits out the
	// workers, so the unlocked reads below do not race.
	s.Close()
	for i, id := range ids {
		j := s.jobs[id]
		if j == nil {
			t.Fatalf("%s not retained", id)
		}
		if a := j.adm; a.Req.Circuit != nil || a.Spec.Circuit != nil || a.Req.Sweep != nil {
			t.Errorf("%s still references its circuit or sweep: %+v", id, a)
		}
		st, _ := s.Get(id)
		if wantShots := []int{3, 2, 2}[i]; st.Shots != wantShots || st.MeshW*st.MeshH < 2 || st.State != StateDone {
			t.Errorf("%s: status lost its request fields: %+v", id, st)
		}
		if wantChips := []int{0, 2, 0}[i]; st.Chips != wantChips {
			t.Errorf("%s: status reports %d chips, want %d", id, st.Chips, wantChips)
		}
	}
}

// A finished job keeps the fold of its shots, not the shots: GHZ jobs of S
// and of 16·S shots, with the same two outcomes, retain the same heap.
func TestFinishedJobRetainsTallyNotShots(t *testing.T) {
	const S, jobs = 64, 32
	s := New(Config{Workers: 1, Artifacts: artifact.New(8)})
	defer s.Close()
	c := ghz(4)
	submitWait(t, s, Request{Circuit: c, Shots: S, Seed: 1}) // compile and pool a replica first
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // what a finalizer kept alive through the first cycle goes in the second
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perJob := func(shots int) float64 {
		before := heap()
		for i := 0; i < jobs; i++ {
			if st := submitWait(t, s, Request{Circuit: c, Shots: shots, Seed: int64(2 + i)}); len(st.Histogram) != 2 {
				t.Fatalf("GHZ job of %d shots saw outcomes %v, want both", shots, st.Histogram)
			}
		}
		return (float64(heap()) - float64(before)) / jobs
	}
	small, large := perJob(S), perJob(16*S)
	t.Logf("retained per finished job: %.0f B at %d shots, %.0f B at %d", small, S, large, 16*S)
	if d := large - small; d > 0.1*small || d < -0.1*small {
		t.Fatalf("a job of %d shots retains %.0f B, one of %d shots %.0f B: retention grows with shots", 16*S, large, S, small)
	}
}

// Invalid submissions are rejected at the door.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(Request{Circuit: nil, Shots: 1}); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if _, err := s.Submit(Request{Circuit: ghz(3), Shots: 0}); err == nil {
		t.Fatal("zero shots accepted")
	}
	if _, ok := s.Get("job-999999"); ok {
		t.Fatal("unknown job ID found")
	}
}

// Concurrent submissions of a mix of circuits stay deterministic per
// seed and race-clean (run under -race in CI).
func TestConcurrentSubmissions(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64, ShotWorkers: 2})
	defer s.Close()

	const jobs = 12
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := s.Submit(Request{
				Circuit: ghz(3 + i%2), Shots: 8, Seed: int64(1000 + i),
			})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()

	for i, id := range ids {
		if id == "" {
			continue
		}
		st, ok := s.Wait(id)
		if !ok || st.State != StateDone {
			t.Fatalf("job %d: ok=%v state=%s err=%q", i, ok, st.State, st.Err)
		}
		n := 3 + i%2
		cfg := machine.DefaultConfig(n)
		cfg.Seed = int64(1000 + i)
		w := 1
		for w*w < n {
			w++
		}
		direct, err := runner.Run(runner.Spec{
			Circuit: ghz(n), MeshW: w, MeshH: (n + w - 1) / w, Cfg: cfg,
		}, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Histogram.String() != direct.Histogram().String() {
			t.Fatalf("job %d histogram diverged under concurrency", i)
		}
	}
}

// Placement is resolved at admission and echoed on the job status: the
// policy name, the auto-picked mesh, and the final mapping the compiler's
// Place pass produced.
func TestPlacementEchoedOnStatus(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	id, err := s.Submit(Request{Circuit: ghz(6), Shots: 2, Seed: 7, Placement: "interaction"})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Wait(id)
	if st.State != StateDone {
		t.Fatalf("state %s, err %q", st.State, st.Err)
	}
	if st.Placement != "interaction" {
		t.Fatalf("placement %q, want interaction", st.Placement)
	}
	if st.MeshW != 3 || st.MeshH != 2 {
		t.Fatalf("mesh %dx%d, want the 3x2 auto mesh", st.MeshW, st.MeshH)
	}
	if len(st.Mapping) != 6 {
		t.Fatalf("mapping %v, want 6 resolved entries", st.Mapping)
	}
	seen := map[int]bool{}
	for _, ctrl := range st.Mapping {
		if ctrl < 0 || ctrl >= 6 || seen[ctrl] {
			t.Fatalf("mapping %v is not a valid permutation", st.Mapping)
		}
		seen[ctrl] = true
	}

	// Default placement: identity policy, nil mapping, same auto mesh.
	id2, err := s.Submit(Request{Circuit: ghz(6), Shots: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := s.Wait(id2)
	if st2.Placement != "identity" {
		t.Fatalf("default placement %q, want identity", st2.Placement)
	}
	if st2.Mapping != nil {
		t.Fatalf("identity mapping %v, want nil", st2.Mapping)
	}
	if st2.Fingerprint == st.Fingerprint {
		t.Fatal("identity and interaction jobs shared a fingerprint")
	}
}

// An unknown placement policy is rejected at Submit, before any queueing.
func TestPlacementValidatedAtSubmit(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(Request{Circuit: ghz(4), Shots: 1, Placement: "bogus"}); err == nil {
		t.Fatal("unknown placement accepted")
	}
}
