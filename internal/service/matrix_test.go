package service

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/workloads"
)

// feedForwardAnsatz is VQEAnsatz(n, 1) with qubit 0 measured mid-circuit
// and an X on qubit 1 conditioned on it: the same symbolic angles, so it
// binds from the same points, but its control flow reads an outcome.
func feedForwardAnsatz(n int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.RYSym(q, fmt.Sprintf("t0_%d", q))
	}
	c.MeasureInto(0, 0)
	c.CondGate(circuit.X, circuit.Condition{Bits: []int{0}, Parity: 1}, 1)
	for q := 1; q < n-1; q++ {
		c.CNOT(q, q+1)
	}
	for q := 1; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// TestExecutionMatrix walks every cell the one execution path serves —
// {plain, Params, Sweep} × {cold pool, warm pool} × ShotWorkers {1, 3}, for
// a static circuit (whose shots ride the commit tape) and a feed-forward
// one (whose shots never do) — and pins two things per cell: the results
// are byte-identical to the runner's one-worker reference (runner.Run of
// the bound circuit — itself held to runner.RunRebuild, the uncached
// machine-per-shot oracle — and runner.RunSweep of the skeleton), and the
// bookkeeping is exact: CacheHit, Batched, the
// Binds/BindHits deltas, PooledReplicas, the compiles charged to the
// artifact cache, and how many shots came off a tape.
func TestExecutionMatrix(t *testing.T) {
	const n = 5
	t.Run("static", func(t *testing.T) { executionMatrix(t, workloads.VQEAnsatz(n, 1), n, true) })
	t.Run("feedforward", func(t *testing.T) { executionMatrix(t, feedForwardAnsatz(n), n, false) })
}

func executionMatrix(t *testing.T, skel *circuit.Circuit, n int, static bool) {
	const (
		shots = 4
		seed  = 11
	)
	points := make([]map[string]float64, 4)
	for k := range points {
		points[k] = workloads.VQEAnsatzPoint(n, 1, k)
	}
	bound, err := skel.Bind(points[0])
	if err != nil {
		t.Fatal(err)
	}

	// One-worker references, compiled through a cache of their own so the
	// services under test start cold.
	w, h := placement.AutoMesh(n)
	refCfg := machine.DefaultConfig(n)
	refCfg.Seed = seed
	refCfg.Artifacts = artifact.New(8)
	refSet, err := runner.Run(runner.Spec{Circuit: bound, MeshW: w, MeshH: h, Cfg: refCfg}, shots, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The reference is itself held to the oracle no cache, pool or tape can
	// reach: a machine built and a pipeline run per shot.
	rebuilt, err := runner.RunRebuild(runner.Spec{Circuit: bound, MeshW: w, MeshH: h, Cfg: refCfg}, shots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refSet, rebuilt) {
		t.Fatal("runner.Run diverges from runner.RunRebuild")
	}
	refSweep, err := runner.RunSweep(runner.Spec{Circuit: skel, MeshW: w, MeshH: h, Cfg: refCfg}, points, shots, 1)
	if err != nil {
		t.Fatal(err)
	}
	refPoints := make([]PointStatus, len(refSweep))
	for k, pt := range refSweep {
		refPoints[k] = pointStatusOf(pt)
	}

	kinds := []struct {
		name  string
		req   Request
		binds uint64 // BindParams patches one pooled job performs
		total uint64 // shots one job runs
	}{
		{"plain", Request{Circuit: bound}, 0, shots},
		{"params", Request{Circuit: skel, Params: points[0]}, 1, shots},
		{"sweep", Request{Circuit: skel, Sweep: points}, uint64(len(points)), uint64(len(points)) * shots},
	}
	steps := []struct {
		name             string
		cacheHit, warmed bool
		misses           uint64
	}{
		{"cold", false, false, 1},
		{"warm", true, true, 0},
	}
	for _, workers := range []int{1, 3} {
		for _, kind := range kinds {
			// One service per (workers, kind): its pool and private cache
			// carry cold → warm in order.
			cache := artifact.New(8)
			svc := New(Config{Workers: 1, ShotWorkers: workers, Artifacts: cache})
			for _, step := range steps {
				req := kind.req
				req.Shots, req.Seed = shots, seed
				before := svc.Stats()
				st := submitWait(t, svc, req)
				after := svc.Stats()
				cell := kind.name + "/" + step.name

				if kind.req.Sweep != nil {
					if st.Set != nil || !reflect.DeepEqual(st.Points, refPoints) {
						t.Errorf("w%d %s: points diverge from runner.RunSweep at one worker", workers, cell)
					}
				} else if st.Points != nil || !reflect.DeepEqual(st.Set, refSet) {
					t.Errorf("w%d %s: shot set diverges from runner.Run at one worker", workers, cell)
				}

				if st.CacheHit != step.cacheHit || st.Batched != step.warmed {
					t.Errorf("w%d %s: CacheHit=%v Batched=%v, want %v %v",
						workers, cell, st.CacheHit, st.Batched, step.cacheHit, step.warmed)
				}
				wantBinds, wantHits := kind.binds, uint64(0)
				if step.cacheHit && kind.binds > 0 {
					wantHits = 1
				}
				if d := after.Binds - before.Binds; d != wantBinds {
					t.Errorf("w%d %s: Binds moved by %d, want %d", workers, cell, d, wantBinds)
				}
				if d := after.BindHits - before.BindHits; d != wantHits {
					t.Errorf("w%d %s: BindHits moved by %d, want %d", workers, cell, d, wantHits)
				}
				// 4 shots and 4 points both cover 3 replicas, so every
				// job holds exactly ShotWorkers of them.
				if after.PooledReplicas != workers {
					t.Errorf("w%d %s: PooledReplicas=%d, want %d", workers, cell, after.PooledReplicas, workers)
				}
				if d := after.Cache.Misses - before.Cache.Misses; d != step.misses {
					t.Errorf("w%d %s: artifact cache charged %d compiles, want %d", workers, cell, d, step.misses)
				}

				// The tape: every shot a replica runs is replayed, except
				// the one it records on first meeting a program. A bind
				// patch is the same program, so a job records once per
				// replica that holds no tape yet — every replica that is
				// handed a shot on a cold job, none on a warm job but those
				// the cold job never handed one.
				taped := after.TapedShots - before.TapedShots
				recordedLeast, recordedMost := uint64(1), uint64(workers)
				if step.warmed {
					recordedLeast, recordedMost = 0, uint64(workers-1)
				}
				switch {
				case after.TapeFallbacks != 0:
					t.Errorf("w%d %s: %d recordings fell back", workers, cell, after.TapeFallbacks)
				case !static && taped != 0:
					t.Errorf("w%d %s: feed-forward job took %d shots off a tape", workers, cell, taped)
				case static && (taped > kind.total-recordedLeast || taped < kind.total-recordedMost):
					t.Errorf("w%d %s: %d of %d shots taped, want between %d and %d",
						workers, cell, taped, kind.total, kind.total-recordedMost, kind.total-recordedLeast)
				}
			}
			svc.Close()
		}
	}
}

// branchy is a feed-forward circuit whose makespan depends on the first
// measurement: outcome 1 drags forty conditioned gates in. Under a
// deadline between the two paths a job fails or succeeds by its seed
// alone, with the pool key (which carries the deadline, not the seed)
// unchanged.
func branchy() *circuit.Circuit {
	c := circuit.New(2)
	c.H(0).MeasureInto(0, 0)
	for i := 0; i < 40; i++ {
		c.CondGate(circuit.X, circuit.Condition{Bits: []int{0}, Parity: 1}, 1)
	}
	return c.MeasureInto(1, 1)
}

// TestFailedRunUnwinds: a job that fails mid-run — some of its shots blow
// the deadline — checks its replicas back in, reports what it observed
// before the failure, and the next job of the same pool key runs warm.
func TestFailedRunUnwinds(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	cfg.Deadline = 600 // short path 356 cycles, long path 1080
	svc := New(Config{Workers: 1, ShotWorkers: 2, Artifacts: artifact.New(8)})
	defer svc.Close()

	// Seed 3: shot 0 takes the short path, shot 1 the long one.
	id, err := svc.Submit(Request{Circuit: branchy(), Cfg: &cfg, Shots: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	failed, _ := svc.Wait(id)
	if failed.State != StateFailed || !strings.Contains(failed.Err, "shot 1") {
		t.Fatalf("job did not fail at its first long shot: %s %q", failed.State, failed.Err)
	}
	if failed.CacheHit || failed.Batched {
		t.Fatalf("cold failed job reports CacheHit=%v Batched=%v", failed.CacheHit, failed.Batched)
	}
	if st := svc.Stats(); st.PooledReplicas != 2 || st.Failed != 1 {
		t.Fatalf("after the failure: PooledReplicas=%d Failed=%d, want 2 and 1", st.PooledReplicas, st.Failed)
	}

	ok := submitWait(t, svc, Request{Circuit: branchy(), Cfg: &cfg, Shots: 1, Seed: 3})
	if !ok.Batched || !ok.CacheHit {
		t.Fatalf("next job of the pool key ran cold: CacheHit=%v Batched=%v", ok.CacheHit, ok.Batched)
	}
	if st := svc.Stats(); st.PooledReplicas != 2 || st.Cache.Misses != 1 {
		t.Fatalf("after the warm job: PooledReplicas=%d misses=%d, want 2 and 1", st.PooledReplicas, st.Cache.Misses)
	}

	// A failed job reports what it observed before failing: run warm, the
	// same failure now says so.
	id, err = svc.Submit(Request{Circuit: branchy(), Cfg: &cfg, Shots: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := svc.Wait(id); again.State != StateFailed || !again.CacheHit || !again.Batched {
		t.Fatalf("warm failed job: %s CacheHit=%v Batched=%v, want failed true true", again.State, again.CacheHit, again.Batched)
	}
}

// TestBackendPanicFailsOneJob: a stabilizer backend handed a non-Clifford
// program panics inside machine.Run. Admission refuses that pairing
// (machine.Normalize), so the test plants it: a replica loaded with H·T
// waits in the pool under the key of a Clifford job, whose cache entry is
// gone — the evicted-but-pooled case, which runs what is loaded. The job
// must end failed with the panic text, its replicas discarded rather than
// pooled, and the worker — and the process — must go on to serve the next
// job.
func TestBackendPanicFailsOneJob(t *testing.T) {
	good, bad := circuit.New(1), circuit.New(1)
	good.H(0).S(0).MeasureInto(0, 0)
	bad.H(0).T(0).MeasureInto(0, 0)
	cfg := machine.DefaultConfig(1)
	cfg.Backend = machine.BackendStabilizer
	for _, workers := range []int{1, 3} {
		svc := New(Config{Workers: 1, ShotWorkers: workers, Artifacts: artifact.New(8)})
		req := Request{Circuit: good, Cfg: &cfg, Shots: 6, Seed: 1}
		adm, err := Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		auto := adm.Spec.Cfg
		auto.Backend = machine.BackendAuto
		art, err := machine.CompileUncached(bad, nil, auto)
		if err != nil {
			t.Fatal(err)
		}
		planted, err := machine.New(adm.Spec.Cfg, bad.NumQubits)
		if err != nil {
			t.Fatal(err)
		}
		if err := planted.Load(art); err != nil {
			t.Fatal(err)
		}
		svc.pool.checkin(poolKeyOf(adm), []*machine.Machine{planted})
		id, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		after, err := svc.Submit(Request{Circuit: ghz(3), Shots: 1, Seed: 1}) // queued behind it
		if err != nil {
			t.Fatal(err)
		}
		st, _ := svc.Wait(id)
		if st.State != StateFailed || !strings.Contains(st.Err, "stabilizer backend cannot apply") {
			t.Fatalf("w%d: panicking job ended %s with %q", workers, st.State, st.Err)
		}
		// The job's error is the recovered *runner.PanicError, whose text
		// is what the record keeps of it.
		if want := (&runner.PanicError{Value: ""}).Error(); !strings.Contains(st.Err, want) {
			t.Fatalf("w%d: job error %q does not read as a recovered panic (%q)", workers, st.Err, want)
		}
		if st, _ := svc.Wait(after); st.State != StateDone {
			t.Fatalf("w%d: job after the panic ended %s (%s)", workers, st.State, st.Err)
		}
		stats := svc.Stats()
		if stats.Failed != 1 || stats.Completed != 1 {
			t.Fatalf("w%d: Failed=%d Completed=%d, want 1 and 1", workers, stats.Failed, stats.Completed)
		}
		// Only the healthy one-shot job's replica is pooled; the panicked
		// ones are gone.
		if stats.PooledReplicas != 1 {
			t.Fatalf("w%d: PooledReplicas=%d, want 1", workers, stats.PooledReplicas)
		}
		svc.Close()
	}
}

// TestReleaseRecoversOutsideTheFanOut: a panic the runner's fan-out cannot
// see — here in replica construction, on the worker goroutine itself — is
// caught by run's release step and becomes the job's error.
func TestReleaseRecoversOutsideTheFanOut(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	// No circuit: machine construction dereferences nil.
	_, err := svc.run(&job{}, plan{points: []map[string]float64{nil}, want: 1}, &JobStatus{ID: "job-broken", Shots: 1})
	var pe *runner.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run returned %v, want a recovered *runner.PanicError", err)
	}
	if n := svc.Stats().PooledReplicas; n != 0 {
		t.Fatalf("a panicked acquire pooled %d replicas", n)
	}
}
