package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhisq/internal/machine"
	"dhisq/internal/network"
)

// Concurrency edge tests: these exist to fail under -race (the CI race
// step covers internal/service) as much as to assert behavior.

func TestWaitContextAlreadyCancelled(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	id, err := s.Submit(Request{Circuit: ghz(3), Shots: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the wait even starts

	done := make(chan struct{})
	var st JobStatus
	var ok bool
	go func() {
		st, ok = s.WaitContext(ctx, id)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitContext hung on an already-cancelled context")
	}
	if !ok {
		t.Fatal("job must still be found under a cancelled context")
	}
	// The snapshot is whatever the job's state was at that instant —
	// queued, running, or done are all legal; a hang or panic is not.
	switch st.State {
	case StateQueued, StateRunning, StateDone:
	default:
		t.Fatalf("unexpected state %q", st.State)
	}

	// The job itself must still complete normally afterwards.
	final, ok := s.Wait(id)
	if !ok || final.State != StateDone {
		t.Fatalf("job did not finish after cancelled wait: %+v", final)
	}

	if _, ok := s.WaitContext(ctx, "job-999999"); ok {
		t.Fatal("unknown job must report not-found even with a cancelled context")
	}
}

func TestSubmitRacingShutdown(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	var submitted, rejected atomic.Int64
	var ids sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id, err := s.Submit(Request{Circuit: ghz(3), Shots: 1, Seed: int64(1 + g*100 + i)})
				switch {
				case err == nil:
					submitted.Add(1)
					ids.Store(id, true)
				case errors.Is(err, ErrClosed), errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}(g)
	}
	// Close while submitters are mid-flight: admitted jobs must reach a
	// terminal state (done, drained-to-failure, or already forgotten),
	// never hang, and late submitters must get ErrClosed, not a panic.
	s.Close()
	wg.Wait()

	ids.Range(func(k, _ any) bool {
		st, ok := s.Get(k.(string))
		if ok && !st.Done() {
			t.Errorf("job %s stuck in state %q after Close", k, st.State)
		}
		return true
	})
	if submitted.Load()+rejected.Load() != 160 {
		t.Fatalf("accounted %d+%d of 160 submissions", submitted.Load(), rejected.Load())
	}
	if _, err := s.Submit(Request{Circuit: ghz(3), Shots: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
}

func TestRetentionEvictionUnderConcurrentGet(t *testing.T) {
	const retain, jobs = MaxRetainedJobs, MaxRetainedJobs + 40
	s := New(Config{Workers: 2})
	defer s.Close()

	var mu sync.Mutex
	var known []string
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The jobs at the retention edge, which finishing jobs evict.
				mu.Lock()
				lo := max(0, len(known)-retain-8)
				snapshot := append([]string(nil), known[lo:min(lo+16, len(known))]...)
				mu.Unlock()
				for _, id := range snapshot {
					// Found or forgotten are both fine; racing eviction must
					// never corrupt a snapshot.
					if st, ok := s.Get(id); ok && st.ID != id {
						t.Errorf("Get(%s) returned snapshot for %s", id, st.ID)
						return
					}
				}
			}
		}()
	}

	for i := 0; i < jobs; i++ {
		id, err := s.Submit(Request{Circuit: ghz(3), Shots: 1, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		known = append(known, id)
		mu.Unlock()
		if _, ok := s.Wait(id); !ok {
			t.Fatalf("job %s vanished before Wait returned", id)
		}
	}
	close(stop)
	readers.Wait()

	// Everything finished, so retention is the only thing keeping jobs
	// alive: at most `retain` of them may still resolve.
	var found int
	for _, id := range known {
		if _, ok := s.Get(id); ok {
			found++
		}
	}
	if found > retain {
		t.Fatalf("%d jobs retained, bound is %d", found, retain)
	}
	if found == 0 {
		t.Fatal("the newest jobs should still be retained")
	}
}

func TestServiceAggregatesCongestion(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	// A tree-only, bandwidth-1 fabric on a QFT-ish all-to-all circuit is
	// guaranteed to queue at the router ports.
	c := ghz(6)
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Backend = machine.BackendSeeded
	cfg.Net.Topology = network.TopoTree
	cfg.Net.LinkSerialization = 1
	enqueueWait(t, s, mustResolve(t, Request{Circuit: c, MeshW: 3, MeshH: 2, Shots: 4, Seed: 5}, cfg))
	stats := s.Stats()
	if stats.NetMessages == 0 {
		t.Fatalf("no network messages aggregated: %+v", stats)
	}
	if stats.NetStallCycles == 0 || stats.NetMaxQueue == 0 {
		t.Fatalf("congestion counters empty under contention: %+v", stats)
	}

	// A contention-free job must not move the congestion counters.
	cfg2 := machine.DefaultConfig(c.NumQubits)
	cfg2.Backend = machine.BackendSeeded
	enqueueWait(t, s, mustResolve(t, Request{Circuit: c, MeshW: 3, MeshH: 2, Shots: 2, Seed: 5}, cfg2))
	if after := s.Stats(); after.NetStallCycles != stats.NetStallCycles ||
		after.NetMessages != stats.NetMessages {
		t.Fatalf("contention-free job moved congestion counters: %+v -> %+v", stats, after)
	}
}
