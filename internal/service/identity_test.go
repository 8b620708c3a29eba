package service

import (
	"errors"
	"reflect"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
)

// One identity per job: the tests that hold Resolve's fingerprint and
// normalized config to be the only derivation — of the pool key, of the
// cache traffic, of what runs when the cache has forgotten.

// nonClifford is a GHZ chain with a T on the first qubit: the Auto rules
// cannot give it the stabilizer backend.
func nonClifford(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0).T(0)
	for q := 0; q < n-1; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// TestPoolKeyNamesTheReplicaBackend: 13 data qubits fit a dense state
// vector, 13 + 2 communication qubits do not, so a 2-chip BackendAuto job
// runs seeded. The pool key used to resolve Auto on the data qubits alone
// (StateVec) while the machine resolved on the total (Seeded), and a later
// explicit-StateVec request was batched onto the seeded replica. The pool
// key is the fingerprint now, and it hashes the normalized config's
// backend, the one the machine is built with.
func TestPoolKeyNamesTheReplicaBackend(t *testing.T) {
	svc := New(Config{Workers: 1, Artifacts: artifact.New(8)})
	defer svc.Close()
	req := Request{Circuit: nonClifford(13), Shots: 2, Seed: 3, Chips: 2, Placement: "interaction"}
	auto := mustResolve(t, req, machine.DefaultConfig(13))
	cfg := machine.DefaultConfig(13)
	cfg.Backend = machine.BackendStateVec
	dense := mustResolve(t, req, cfg)
	backend := map[artifact.Fingerprint]machine.BackendKind{
		auto.Fingerprint: auto.Spec.Cfg.Backend, dense.Fingerprint: dense.Spec.Cfg.Backend,
	}

	enqueueWait(t, svc, auto)
	if st := enqueueWait(t, svc, dense); st.Batched {
		t.Fatal("an explicit state-vector job was batched onto the Auto job's replica")
	}

	svc.pool.mu.Lock()
	defer svc.pool.mu.Unlock()
	if len(svc.pool.groups) != 2 {
		t.Fatalf("%d pool groups, want one per backend", len(svc.pool.groups))
	}
	for fp, group := range svc.pool.groups {
		for _, m := range group {
			var got machine.BackendKind
			switch m.Chip.Backend().(type) {
			case *chip.StateVecBackend:
				got = machine.BackendStateVec
			case *chip.StabilizerBackend:
				got = machine.BackendStabilizer
			case *chip.SeededBackend:
				got = machine.BackendSeeded
			}
			if got != backend[fp] {
				t.Errorf("fingerprint resolved backend %d, its replica is a %T", backend[fp], m.Chip.Backend())
			}
		}
	}
}

// memStore is an artifact.Store in memory.
type memStore map[artifact.Fingerprint]*compiler.Compiled

// errAbsent is the fake stores' miss.
var errAbsent = errors.New("artifact not stored")

func (s memStore) Get(fp artifact.Fingerprint) (*compiler.Compiled, error) {
	if cp, ok := s[fp]; ok {
		return cp, nil
	}
	return nil, errAbsent
}

func (s memStore) Put(fp artifact.Fingerprint, cp *compiler.Compiled) error {
	s[fp] = cp
	return nil
}

// TestJobProbesTheCacheOnce: with a store attached, a cold job costs one
// compile and one store lookup (it used to look the store up twice: once
// probing, once compiling), and its warm repeat one hit and nothing else.
func TestJobProbesTheCacheOnce(t *testing.T) {
	cache := artifact.New(8)
	cache.SetStore(memStore{})
	svc := New(Config{Workers: 1, Artifacts: cache})
	defer svc.Close()
	req := Request{Circuit: ghz(5), Shots: 3, Seed: 2}

	s0 := cache.Stats()
	if st := submitWait(t, svc, req); st.CacheHit || st.Batched {
		t.Fatalf("cold job: CacheHit=%v Batched=%v", st.CacheHit, st.Batched)
	}
	s1 := cache.Stats()
	if s1.Misses-s0.Misses != 1 || s1.StoreMisses-s0.StoreMisses != 1 || s1.Hits != s0.Hits || s1.Spills-s0.Spills != 1 {
		t.Fatalf("cold job moved the cache by %+v -> %+v, want misses +1, store_misses +1, spills +1, hits +0", s0, s1)
	}
	if st := submitWait(t, svc, req); !st.CacheHit || !st.Batched {
		t.Fatalf("warm job: CacheHit=%v Batched=%v", st.CacheHit, st.Batched)
	}
	s2 := cache.Stats()
	if s2.Misses != s1.Misses || s2.StoreMisses != s1.StoreMisses || s2.Hits-s1.Hits != 1 {
		t.Fatalf("warm job moved the cache by %+v -> %+v, want hits +1 and nothing else", s1, s2)
	}
}

// TestEvictedButPooled: a capacity-1 cache forgets family A when family B
// compiles, but the pool still holds A's loaded replica. A's next job runs
// what is loaded — no compile — and answers exactly as it first did.
func TestEvictedButPooled(t *testing.T) {
	cache := artifact.New(1)
	svc := New(Config{Workers: 1, Artifacts: cache})
	defer svc.Close()
	a := Request{Circuit: ghz(4), Shots: 6, Seed: 5}
	b := Request{Circuit: ghz(5), Shots: 6, Seed: 5}

	first := submitWait(t, svc, a)
	submitWait(t, svc, b)
	if st := cache.Stats(); st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("after A, B: misses=%d evictions=%d, want 2 and 1", st.Misses, st.Evictions)
	}
	third := submitWait(t, svc, a)
	if third.CacheHit || !third.Batched {
		t.Fatalf("A again: CacheHit=%v Batched=%v, want false (evicted) and true (pooled)", third.CacheHit, third.Batched)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("A's evicted-but-pooled job compiled: misses=%d, want 2", st.Misses)
	}
	if !reflect.DeepEqual(third.Tally, first.Tally) || !reflect.DeepEqual(third.Mapping, first.Mapping) {
		t.Fatal("A's third answer differs from its first")
	}
}
