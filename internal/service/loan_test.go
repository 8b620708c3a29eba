package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
)

// heldReplicas reads the replicas the running jobs' plans hold.
func heldReplicas(s *Service) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// A job gets ShotWorkers replicas, or all of the budget the running jobs do
// not hold, capped at its fan-out units: shots, or sweep points.
func TestPlanForLendsIdleReplicas(t *testing.T) {
	sweep := make([]map[string]float64, 5)
	for _, c := range []struct {
		name                       string
		workers, shotWorkers, held int
		req                        Request
		want                       int
	}{
		{"alone: the full budget", 2, 3, 0, Request{Shots: 10}, 6},
		{"partly held: the idle share", 2, 3, 2, Request{Shots: 10}, 4},
		{"other worker at its floor: exactly ShotWorkers", 2, 3, 3, Request{Shots: 10}, 3},
		{"fully held: the ShotWorkers floor", 2, 3, 6, Request{Shots: 10}, 3},
		{"held past the budget by a loan: the floor", 2, 3, 9, Request{Shots: 10}, 3},
		{"capped at the shots", 2, 3, 0, Request{Shots: 4}, 4},
		{"one shot: one replica", 2, 3, 0, Request{Shots: 1}, 1},
		{"a sweep fans out points, not shots", 2, 3, 0, Request{Shots: 100, Sweep: sweep}, 5},
		{"a one-point sweep fans out its shots", 2, 3, 0, Request{Shots: 100, Sweep: sweep[:1]}, 6},
		{"one worker: ShotWorkers, as before", 1, 3, 0, Request{Shots: 10}, 3},
	} {
		s := &Service{cfg: Config{Workers: c.workers, ShotWorkers: c.shotWorkers}, held: c.held}
		if got := s.planFor(Admission{Req: c.req}).want; got != c.want {
			t.Errorf("%s: want=%d, expected %d", c.name, got, c.want)
		}
	}
}

// gate holds a's compile in flight until the returned release is called
// (once or more): a job of a's fingerprint that starts meanwhile waits in
// its artifact acquire, after its plan, holding the plan's replicas.
func gate(t *testing.T, cache *artifact.Cache, a Admission) (release func()) {
	t.Helper()
	entered, rel, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		cache.GetOrCompile(a.Fingerprint, func() (*compiler.Compiled, error) {
			close(entered)
			<-rel
			return machine.CompileUncached(a.Spec.Circuit, a.Spec.Mapping, a.Spec.Cfg)
		})
	}()
	<-entered
	var once sync.Once
	return func() { once.Do(func() { close(rel) }); <-done }
}

// heldWhenRunning waits until n jobs run (each planned: Running moves with
// the plan, under one lock) and reads the replicas they hold.
func heldWhenRunning(t *testing.T, s *Service, n int) int {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Running != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d jobs running (%d are)", n, s.Stats().Running)
		}
	}
	return heldReplicas(s)
}

// With both workers busy each job holds exactly ShotWorkers; only a job
// that starts beside an idle worker borrows its share, and the loan is
// decided once, at the job's start.
func TestBusyWorkersHoldShotWorkers(t *testing.T) {
	const shotWorkers = 2
	cache := artifact.New(8)
	svc := New(Config{Workers: 2, ShotWorkers: shotWorkers, Artifacts: cache})
	defer svc.Close()
	var adms [3]Admission
	var releases [3]func()
	defer func() { // a failed check leaves gates shut: open them, or Close hangs
		for _, release := range releases {
			if release != nil {
				release()
			}
		}
	}()
	ids := make([]string, 3)
	start := func(i int) {
		adms[i] = mustResolve(t, Request{Circuit: ghz(3 + i), Shots: 8, Seed: 1}, machine.DefaultConfig(3+i))
		releases[i] = gate(t, cache, adms[i])
		id, err := svc.Enqueue(adms[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	finish := func(i int) {
		releases[i]()
		if st, _ := svc.Wait(ids[i]); st.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Err)
		}
	}

	start(0)
	if held := heldWhenRunning(t, svc, 1); held != 2*shotWorkers {
		t.Fatalf("a lone job holds %d replicas, want the budget %d", held, 2*shotWorkers)
	}
	start(1)
	if held := heldWhenRunning(t, svc, 2); held != 3*shotWorkers {
		t.Fatalf("beside a job holding the budget: %d held, want %d (the floor)", held, 3*shotWorkers)
	}
	finish(0)
	start(2)
	if held := heldWhenRunning(t, svc, 2); held != 2*shotWorkers {
		t.Fatalf("both workers busy: %d held, want ShotWorkers each (%d)", held, 2*shotWorkers)
	}
	finish(1)
	finish(2)
	if held := heldReplicas(svc); held != 0 {
		t.Fatalf("%d replicas held with no job running", held)
	}
	// A cold job builds exactly the replicas it holds, and pools them all.
	for i, want := range []int{2 * shotWorkers, shotWorkers, shotWorkers} {
		if n := pooled(t, svc.pool, adms[i].Fingerprint); n != want {
			t.Errorf("job %d pooled %d replicas, want %d", i, n, want)
		}
	}
}

// The pool keeps one full fan-out: a ShotWorkers above
// PooledReplicasPerWorker is not trimmed at checkin, so a repeat job runs
// on every replica the first one built.
func TestPoolKeepsAFullFanOut(t *testing.T) {
	svc := New(Config{Workers: 1, ShotWorkers: 8, Artifacts: artifact.New(8)})
	defer svc.Close()
	for i, batched := range []bool{false, true} {
		st := submitWait(t, svc, Request{Circuit: ghz(6), Shots: 16, Seed: 1})
		if st.Batched != batched {
			t.Errorf("job %d: Batched=%v, want %v", i, st.Batched, batched)
		}
		if n := svc.Stats().PooledReplicas; n != 8 {
			t.Errorf("job %d left %d replicas pooled, want 8", i, n)
		}
	}
}

// A job whose backend panics gives its loan back like any other: with no job
// running nothing is held, and the next lone job borrows the idle worker's
// share again.
func TestPanickedJobReturnsItsLoan(t *testing.T) {
	for _, shotWorkers := range []int{1, 3} {
		svc := New(Config{Workers: 2, ShotWorkers: shotWorkers, Artifacts: artifact.New(8)})
		id, err := svc.Enqueue(plantPanic(t, svc))
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := svc.Wait(id); st.State != StateFailed || !strings.Contains(st.Err, "stabilizer backend cannot apply") {
			t.Fatalf("S%d: panicking job ended %s with %q", shotWorkers, st.State, st.Err)
		}
		if held := heldReplicas(svc); held != 0 {
			t.Fatalf("S%d: %d replicas still held with no job running", shotWorkers, held)
		}
		if n := svc.Stats().PooledReplicas; n != 0 {
			t.Fatalf("S%d: %d replicas pooled after the panic, want 0", shotWorkers, n)
		}
		submitWait(t, svc, Request{Circuit: ghz(4), Shots: 8, Seed: 1})
		if n := svc.Stats().PooledReplicas; n != 2*shotWorkers {
			t.Fatalf("S%d: the next lone job held %d replicas, want the full budget %d", shotWorkers, n, 2*shotWorkers)
		}
		svc.Close()
	}
}

// Lent replicas never cost another program its warm machines: over budget,
// the pool trims each group to ShotWorkers before it evicts one. Each cell
// rotates as many families as the pool kept warm before the loan,
// PooledReplicasPerWorker×Workers / ShotWorkers, more than fit at a lone
// job's full fan-out; every repeat job must still find pooled replicas.
func TestLoansDoNotEvictWarmFamilies(t *testing.T) {
	for _, c := range []struct{ workers, shotWorkers int }{{2, 1}, {2, 2}} {
		families := PooledReplicasPerWorker * c.workers / c.shotWorkers
		svc := New(Config{Workers: c.workers, ShotWorkers: c.shotWorkers, Artifacts: artifact.New(2 * families)})
		for round := range 3 {
			for f := range families {
				st := submitWait(t, svc, Request{Circuit: ghz(2 + f), Shots: 8, Seed: 1})
				cell := fmt.Sprintf("W%d/S%d round %d family %d", c.workers, c.shotWorkers, round, f)
				if st.State != StateDone {
					t.Fatalf("%s: %s (%s)", cell, st.State, st.Err)
				}
				if st.Batched != (round > 0) {
					t.Errorf("%s: Batched=%v, want %v", cell, st.Batched, round > 0)
				}
			}
		}
		svc.Close()
	}
}
