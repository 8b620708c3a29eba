package service

import (
	"math"
	"testing"

	"dhisq/internal/machine"
	"dhisq/internal/workloads"
)

func submitWait(t *testing.T, svc *Service, req Request) JobStatus {
	t.Helper()
	id, err := svc.Submit(req)
	return waitDone(t, svc, id, err)
}

// enqueueWait is submitWait for a job resolved on a config of the test's.
func enqueueWait(t *testing.T, svc *Service, a Admission) JobStatus {
	t.Helper()
	id, err := svc.Enqueue(a)
	return waitDone(t, svc, id, err)
}

// mustResolve is resolve(req, cfg), failing t on an error.
func mustResolve(t *testing.T, req Request, cfg machine.Config) Admission {
	t.Helper()
	a, err := resolve(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// waitDone waits for the job a Submit or Enqueue returned and requires it
// done.
func waitDone(t *testing.T, svc *Service, id string, err error) JobStatus {
	t.Helper()
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

// TestSweepCongestionAccounted: a sweep under finite link bandwidth must
// move the /v1/stats net_* counters even though its per-shot sets are
// dropped after the per-point snapshots are taken.
func TestSweepCongestionAccounted(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	c := workloads.VQEAnsatz(6, 1)
	submitWait(t, svc, Request{
		Circuit: c, Shots: 4, Seed: 3, Topo: "tree", LinkBW: 4,
		Sweep: []map[string]float64{workloads.VQEAnsatzPoint(6, 1, 0)},
	})
	st := svc.Stats()
	if st.NetMessages == 0 {
		t.Fatalf("sweep congestion vanished from service stats: %+v", st)
	}
}

// TestSweepPointCap: the bounded queue counts jobs, so a single sweep
// must not smuggle unbounded work past admission. A sweep of exactly
// MaxSweepPoints runs.
func TestSweepPointCap(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	c := workloads.VQEAnsatz(4, 1)
	pts := make([]map[string]float64, MaxSweepPoints+1)
	for k := range pts {
		pts[k] = workloads.VQEAnsatzPoint(4, 1, k)
	}
	if _, err := svc.Submit(Request{Circuit: c, Shots: 1, Sweep: pts}); err == nil {
		t.Fatal("over-limit sweep accepted")
	}
	if st := submitWait(t, svc, Request{Circuit: c, Shots: 1, Seed: 2, Sweep: pts[:MaxSweepPoints]}); len(st.Points) != MaxSweepPoints {
		t.Fatalf("at-limit sweep returned %d points, want %d", len(st.Points), MaxSweepPoints)
	}
}
