package service

import (
	"math"
	"reflect"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/runner"
	"dhisq/internal/workloads"
)

func submitWait(t *testing.T, svc *Service, req Request) JobStatus {
	t.Helper()
	id, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := svc.Wait(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	if st.State != StateDone {
		t.Fatalf("job %s: %s (%s)", id, st.State, st.Err)
	}
	return st
}

// TestParamsJobMatchesBoundPlainJob: a parameter-bound job served off the
// cached skeleton is byte-identical to a plain job of the circuit bound up
// front — a full compile of the binding under its own key — and repeat
// bindings compile nothing.
func TestParamsJobMatchesBoundPlainJob(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	c := workloads.VQEAnsatz(6, 1)
	p1 := workloads.VQEAnsatzPoint(6, 1, 1)
	p2 := workloads.VQEAnsatzPoint(6, 1, 2)

	warm1 := submitWait(t, svc, Request{Circuit: c, Shots: 10, Seed: 5, Params: p1})
	before := artifact.Shared.Stats()
	warm2 := submitWait(t, svc, Request{Circuit: c, Shots: 10, Seed: 5, Params: p2})
	after := artifact.Shared.Stats()
	if d := after.Misses - before.Misses; d != 0 {
		t.Fatalf("second binding compiled %d times, want 0", d)
	}
	if !warm2.CacheHit {
		t.Fatal("second binding missed the skeleton cache")
	}
	bound, err := c.Bind(p1)
	if err != nil {
		t.Fatal(err)
	}
	plain1 := submitWait(t, svc, Request{Circuit: bound, Shots: 10, Seed: 5})
	if plain1.Fingerprint == warm1.Fingerprint {
		t.Fatal("the bound plain job shares the skeleton's fingerprint: it is no independent reference")
	}
	if !reflect.DeepEqual(warm1.Set, plain1.Set) {
		t.Fatalf("bind path broke determinism:\nbind:\n%s\nplain:\n%s", warm1.Histogram, plain1.Histogram)
	}
	if warm1.Histogram.String() == warm2.Histogram.String() {
		t.Log("note: different bindings produced identical histograms (possible but unlikely)")
	}
	st := svc.Stats()
	if st.Binds < 2 || st.BindHits < 1 {
		t.Fatalf("bind counters not accounted: binds=%d bind_hits=%d", st.Binds, st.BindHits)
	}
}

// TestSweepJob: one job runs every point against one compiled skeleton;
// point k matches a separate params job seeded with DeriveSeed(jobSeed, k).
func TestSweepJob(t *testing.T) {
	svc := New(Config{Workers: 1, ShotWorkers: 2})
	defer svc.Close()
	c := workloads.VQEAnsatz(6, 1)
	points := []map[string]float64{
		workloads.VQEAnsatzPoint(6, 1, 0),
		workloads.VQEAnsatzPoint(6, 1, 1),
		workloads.VQEAnsatzPoint(6, 1, 2),
	}
	before := artifact.Shared.Stats()
	st := submitWait(t, svc, Request{Circuit: c, Shots: 6, Seed: 9, Sweep: points})
	after := artifact.Shared.Stats()
	if d := after.Misses - before.Misses; d > 1 {
		t.Fatalf("sweep compiled %d times, want at most 1", d)
	}
	if st.Set != nil || st.Histogram != nil {
		t.Fatal("sweep job returned a flat shot set")
	}
	if len(st.Points) != len(points) {
		t.Fatalf("got %d points, want %d", len(st.Points), len(points))
	}
	if st.Makespan == 0 || st.Makespan != st.Points[0].Makespan {
		t.Fatalf("sweep makespan not echoed from point 0: %d", st.Makespan)
	}
	for k, pt := range st.Points {
		single := submitWait(t, svc, Request{
			Circuit: c, Shots: 6, Seed: machine.DeriveSeed(9, k), Params: points[k],
		})
		if pt.Histogram.String() != single.Histogram.String() {
			t.Fatalf("sweep point %d differs from the equivalent single job:\n%s\nvs\n%s",
				k, pt.Histogram, single.Histogram)
		}
	}
}

// TestBindAdmissionErrors: malformed parameter submissions are rejected
// before any work queues.
func TestBindAdmissionErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	c := workloads.VQEAnsatz(4, 1)
	full := workloads.VQEAnsatzPoint(4, 1, 0)
	cases := map[string]Request{
		"unbound-no-params": {Circuit: c, Shots: 1},
		"params-and-sweep":  {Circuit: c, Shots: 1, Params: full, Sweep: []map[string]float64{full}},
		"missing-param":     {Circuit: c, Shots: 1, Params: map[string]float64{"t0_0": 1}},
		"unknown-param": {Circuit: workloads.GHZ(4), Shots: 1,
			Params: map[string]float64{"bogus": 1}},
		"nan-param": {Circuit: c, Shots: 1, Params: func() map[string]float64 {
			m := map[string]float64{}
			for k, v := range full {
				m[k] = v
			}
			m["t0_0"] = math.NaN()
			return m
		}()},
		"bad-sweep-point": {Circuit: c, Shots: 1,
			Sweep: []map[string]float64{full, {"t0_0": 1}}},
	}
	for name, req := range cases {
		if _, err := svc.Submit(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An empty params map on a concrete circuit is legal (bind no-op).
	submitWait(t, svc, Request{Circuit: workloads.GHZ(4), Shots: 2, Seed: 3,
		Params: map[string]float64{}})
}

// TestFreshSweepMatchesCachedSweep: the sweep baseline — every point bound
// up front and run on runner.RunRebuild, a fresh machine and an uncached
// pipeline run per shot — must agree point for point with the bind-patched
// path.
func TestFreshSweepMatchesCachedSweep(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	c := workloads.VQEAnsatz(5, 1)
	points := []map[string]float64{
		workloads.VQEAnsatzPoint(5, 1, 0),
		workloads.VQEAnsatzPoint(5, 1, 4),
	}
	warm := submitWait(t, svc, Request{Circuit: c, Shots: 5, Seed: 13, Sweep: points})
	if len(warm.Points) != len(points) {
		t.Fatalf("got %d points, want %d", len(warm.Points), len(points))
	}
	for k, pt := range points {
		bound, err := c.Bind(pt)
		if err != nil {
			t.Fatal(err)
		}
		adm, err := Resolve(Request{Circuit: bound, Shots: 5, Seed: machine.DeriveSeed(13, k)})
		if err != nil {
			t.Fatal(err)
		}
		set, err := runner.RunRebuild(adm.Spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		fresh := pointStatusOf(runner.SweepPoint{Index: k, Params: pt, Set: set})
		if !reflect.DeepEqual(warm.Points[k], fresh) {
			t.Fatalf("point %d: bind path %+v vs rebuilt %+v", k, warm.Points[k], fresh)
		}
	}
}

// TestSweepCongestionAccounted: a sweep under finite link bandwidth must
// move the /v1/stats net_* counters even though its per-shot sets are
// dropped after the per-point snapshots are taken.
func TestSweepCongestionAccounted(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	c := workloads.VQEAnsatz(6, 1)
	cfg := machine.DefaultConfig(6)
	cfg.Net.Topology = network.TopoTree
	cfg.Net.LinkSerialization = 4
	submitWait(t, svc, Request{
		Circuit: c, Shots: 4, Seed: 3, Cfg: &cfg,
		Sweep: []map[string]float64{workloads.VQEAnsatzPoint(6, 1, 0)},
	})
	st := svc.Stats()
	if st.NetMessages == 0 {
		t.Fatalf("sweep congestion vanished from service stats: %+v", st)
	}
}

// TestSweepPointCap: the bounded queue counts jobs, so a single sweep
// must not smuggle unbounded work past admission.
func TestSweepPointCap(t *testing.T) {
	svc := New(Config{Workers: 1, MaxSweepPoints: 3})
	defer svc.Close()
	c := workloads.VQEAnsatz(4, 1)
	pts := make([]map[string]float64, 4)
	for k := range pts {
		pts[k] = workloads.VQEAnsatzPoint(4, 1, k)
	}
	if _, err := svc.Submit(Request{Circuit: c, Shots: 1, Sweep: pts}); err == nil {
		t.Fatal("over-limit sweep accepted")
	}
	submitWait(t, svc, Request{Circuit: c, Shots: 1, Seed: 2, Sweep: pts[:3]})
}
