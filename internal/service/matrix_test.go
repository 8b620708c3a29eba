package service

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/isa"
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

// rebuilt is the oracle no cache, pool or tape can reach: every shot of spec
// on a machine built for it alone, with the compiler pipeline run in full.
func rebuilt(t *testing.T, spec runner.Spec, shots int) *runner.ShotSet {
	t.Helper()
	set := &runner.ShotSet{Shots: make([]runner.Shot, shots), NumBits: spec.Circuit.NumBits}
	for k := range set.Shots {
		cfg := spec.Cfg
		cfg.Seed = machine.DeriveSeed(spec.Cfg.Seed, k)
		m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := machine.CompileUncached(spec.Circuit, spec.Mapping, m.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(cp); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("rebuilt shot %d: %v", k, err)
		}
		bits, err := m.ReadBits()
		if err != nil {
			t.Fatalf("rebuilt shot %d: %v", k, err)
		}
		set.Shots[k] = runner.Shot{Index: k, Seed: cfg.Seed, Result: res, Bits: bits}
	}
	return set
}

// TestExecutionMatrix walks every cell the one execution path serves —
// {plain, Params, Sweep} × {cold pool, warm pool} × (Workers, ShotWorkers)
// {(1, 1), (1, 3), (2, 1), (2, 3)}, for
// a static circuit (whose shots ride the commit tape) and a feed-forward
// one (whose shots never do) — and pins two things per cell: the job's
// tally, outcome digest included, equals the fold of the runner's
// uncached machine-per-shot oracle (rebuilt of the bound circuit and, for
// sweep point k, of its bound circuit at seed DeriveSeed(seed, k)), and the
// bookkeeping is exact: CacheHit, Batched, the
// Binds/BindHits deltas, PooledReplicas, the compiles charged to the
// artifact cache, and how many shots came off a tape. At 2 workers the
// lone job borrows the idle worker's replicas.
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

	// The references compile uncached, so the services under test start cold.
	w, h := placement.AutoMesh(n)
	refCfg := machine.DefaultConfig(n)
	refCfg.Seed = seed
	refTally := rebuilt(t, runner.Spec{Circuit: bound, MeshW: w, MeshH: h, Cfg: refCfg}, shots).Tally()
	// Point k of a sweep is the bound circuit run at DeriveSeed(seed, k).
	refPoints := make([]PointStatus, len(points))
	for k, pt := range points {
		b, err := skel.Bind(pt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := refCfg
		cfg.Seed = machine.DeriveSeed(seed, k)
		refPoints[k] = pointStatusOf(k, pt, rebuilt(t, runner.Spec{Circuit: b, MeshW: w, MeshH: h, Cfg: cfg}, shots).Tally())
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
	for _, c := range []struct{ workers, shotWorkers int }{{1, 1}, {1, 3}, {2, 1}, {2, 3}} {
		// Every job runs alone, so it holds Workers×ShotWorkers replicas,
		// capped at its 4 shots or 4 points.
		held := min(shots, c.workers*c.shotWorkers)
		for _, kind := range kinds {
			// One service per (config, kind): its pool and private cache
			// carry cold → warm in order.
			cache := artifact.New(8)
			svc := New(Config{Workers: c.workers, ShotWorkers: c.shotWorkers, Artifacts: cache})
			for _, step := range steps {
				req := kind.req
				req.Shots, req.Seed = shots, seed
				before := svc.Stats()
				st := submitWait(t, svc, req)
				after := svc.Stats()
				cell := fmt.Sprintf("W%d/S%d %s/%s", c.workers, c.shotWorkers, kind.name, step.name)

				if kind.req.Sweep != nil {
					if st.Tally != nil || !reflect.DeepEqual(st.Points, refPoints) {
						t.Errorf("%s: points diverge from rebuilt of the bound points", cell)
					}
				} else if st.Points != nil || !reflect.DeepEqual(st.Tally, &refTally) {
					t.Errorf("%s: tally diverges from rebuilt", cell)
				}

				if st.CacheHit != step.cacheHit || st.Batched != step.warmed {
					t.Errorf("%s: CacheHit=%v Batched=%v, want %v %v",
						cell, st.CacheHit, st.Batched, step.cacheHit, step.warmed)
				}
				wantBinds, wantHits := kind.binds, uint64(0)
				if step.cacheHit && kind.binds > 0 {
					wantHits = 1
				}
				if d := after.Binds - before.Binds; d != wantBinds {
					t.Errorf("%s: Binds moved by %d, want %d", cell, d, wantBinds)
				}
				if d := after.BindHits - before.BindHits; d != wantHits {
					t.Errorf("%s: BindHits moved by %d, want %d", cell, d, wantHits)
				}
				if after.PooledReplicas != held {
					t.Errorf("%s: PooledReplicas=%d, want %d", cell, after.PooledReplicas, held)
				}
				if d := after.Cache.Misses - before.Cache.Misses; d != step.misses {
					t.Errorf("%s: artifact cache charged %d compiles, want %d", cell, d, step.misses)
				}

				// The tape: every shot a replica runs is replayed, except
				// the one it records on first meeting a program. A bind
				// patch is the same program, so a job records once per
				// replica that holds no tape yet — every replica that is
				// handed a shot on a cold job, none on a warm job but those
				// the cold job never handed one.
				taped := after.TapedShots - before.TapedShots
				recordedLeast, recordedMost := uint64(1), uint64(held)
				if step.warmed {
					recordedLeast, recordedMost = 0, uint64(held-1)
				}
				switch {
				case after.TapeFallbacks != 0:
					t.Errorf("%s: %d recordings fell back", cell, after.TapeFallbacks)
				case !static && taped != 0:
					t.Errorf("%s: feed-forward job took %d shots off a tape", cell, taped)
				case static && (taped > kind.total-recordedLeast || taped < kind.total-recordedMost):
					t.Errorf("%s: %d of %d shots taped, want between %d and %d",
						cell, taped, kind.total, kind.total-recordedMost, kind.total-recordedLeast)
				}
			}
			svc.Close()
		}
	}
}

// branchy is a feed-forward circuit whose shots split on the first
// measurement: outcome 1 drags forty conditioned X gates in, outcome 0
// skips them.
func branchy() *circuit.Circuit {
	c := circuit.New(2)
	c.H(0).MeasureInto(0, 0)
	for i := 0; i < 40; i++ {
		c.CondGate(circuit.X, circuit.Condition{Bits: []int{0}, Parity: 1}, 1)
	}
	return c.MeasureInto(1, 1)
}

// plantStore is an artifact.Store that keeps nothing and plants a fault in
// every artifact it is handed to save. The spill runs before GetOrCompile
// returns, so the job that compiled runs the planted program, and so does
// every job the cache serves it to after.
type plantStore func(*compiler.Compiled)

func (plantStore) Get(artifact.Fingerprint) (*compiler.Compiled, error) { return nil, errAbsent }

func (p plantStore) Put(_ artifact.Fingerprint, cp *compiler.Compiled) error {
	p(cp)
	return nil
}

// xPastTable renumbers every commit of an X on cp's controllers one past
// its controller's table. In branchy's program only the conditioned body
// commits an X, so a shot that takes the branch fails with the chip's
// "codeword … outside table" error, and one that does not runs clean.
func xPastTable(cp *compiler.Compiled) {
	for n, table := range cp.Tables {
		for idx, e := range table {
			if e.Kind != circuit.X {
				continue
			}
			for i, in := range cp.Programs[n].Instrs {
				if in.Op == isa.OpCWII && in.Imm == int32(idx+1) {
					cp.Programs[n].Instrs[i].Imm = int32(len(table) + 1)
				}
			}
		}
	}
}

// TestFailedRunUnwinds: a job that fails mid-run — some of its shots hit a
// planted chip error — checks its replicas back in, reports what it
// observed before the failure, and the next job of the same fingerprint
// runs warm.
func TestFailedRunUnwinds(t *testing.T) {
	arts := artifact.New(8)
	arts.SetStore(plantStore(xPastTable))
	svc := New(Config{Workers: 1, ShotWorkers: 2, Artifacts: arts})
	defer svc.Close()

	// Seed 3: shot 0 skips the branch, shot 1 takes it.
	id, err := svc.Submit(Request{Circuit: branchy(), Shots: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	failed, _ := svc.Wait(id)
	if failed.State != StateFailed || !strings.Contains(failed.Err, "shot 1") || !strings.Contains(failed.Err, "outside table") {
		t.Fatalf("job did not fail at its first branching shot: %s %q", failed.State, failed.Err)
	}
	if failed.CacheHit || failed.Batched {
		t.Fatalf("cold failed job reports CacheHit=%v Batched=%v", failed.CacheHit, failed.Batched)
	}
	if st := svc.Stats(); st.PooledReplicas != 2 || st.Failed != 1 {
		t.Fatalf("after the failure: PooledReplicas=%d Failed=%d, want 2 and 1", st.PooledReplicas, st.Failed)
	}

	ok := submitWait(t, svc, Request{Circuit: branchy(), Shots: 1, Seed: 3})
	if !ok.Batched || !ok.CacheHit {
		t.Fatalf("next job of the fingerprint ran cold: CacheHit=%v Batched=%v", ok.CacheHit, ok.Batched)
	}
	if st := svc.Stats(); st.PooledReplicas != 2 || st.Cache.Misses != 1 {
		t.Fatalf("after the warm job: PooledReplicas=%d misses=%d, want 2 and 1", st.PooledReplicas, st.Cache.Misses)
	}

	// A failed job reports what it observed before failing: run warm, the
	// same failure now says so.
	id, err = svc.Submit(Request{Circuit: branchy(), Shots: 8, Seed: 3})
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
	for _, workers := range []int{1, 3} {
		svc := New(Config{Workers: 1, ShotWorkers: workers, Artifacts: artifact.New(8)})
		id, err := svc.Enqueue(plantPanic(t, svc))
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

// plantPanic pools, in svc, a replica loaded with H·T on the stabilizer
// backend under the fingerprint of the 6-shot Clifford job it returns,
// whose cache entry svc never holds: running that job panics inside
// machine.Run.
func plantPanic(t *testing.T, svc *Service) Admission {
	t.Helper()
	good, bad := circuit.New(1), circuit.New(1)
	good.H(0).S(0).MeasureInto(0, 0)
	bad.H(0).T(0).MeasureInto(0, 0)
	cfg := machine.DefaultConfig(1)
	cfg.Backend = machine.BackendStabilizer
	adm := mustResolve(t, Request{Circuit: good, Shots: 6, Seed: 1}, cfg)
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
	svc.pool.checkin(adm.Fingerprint, []*machine.Machine{planted})
	return adm
}

// TestReleaseRecoversOutsideTheFanOut: a panic the runner's fan-out cannot
// see — here in the compile, on the worker goroutine itself — is caught by
// run's release step and becomes the job's error.
func TestReleaseRecoversOutsideTheFanOut(t *testing.T) {
	svc := New(Config{Workers: 1, Artifacts: artifact.New(1)})
	defer svc.Close()
	// No circuit: the compile dereferences nil. The second run has the
	// same fingerprint on the same cache: it must compile (and panic)
	// again, not wait on the first run's flight.
	for i := 0; i < 2; i++ {
		errc := make(chan error, 1)
		go func() {
			_, err := svc.run(&job{}, plan{points: []map[string]float64{nil}, want: 1}, &JobStatus{ID: "job-broken", Shots: 1})
			errc <- err
		}()
		var err error
		select {
		case err = <-errc:
		case <-time.After(10 * time.Second):
			t.Fatalf("run %d did not return: the panicked compile's flight never landed", i+1)
		}
		var pe *runner.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d returned %v, want a recovered *runner.PanicError", i+1, err)
		}
	}
	if n := svc.Stats().PooledReplicas; n != 0 {
		t.Fatalf("a panicked acquire pooled %d replicas", n)
	}
}
