package service

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
)

// hub builds the adversarial hotspot workload: every data qubit CNOTs
// into one hub controller, congesting the hub's links under finite link
// bandwidth. Same shape as the hotspot workload of dhisq-bench's
// placement and feedback sweeps.
func hub(n int) *circuit.Circuit {
	c := circuit.New(n)
	h := n - 1
	for round := 0; round < 3; round++ {
		for q := 0; q < n-1; q++ {
			c.CNOT(q, h)
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

func contendedCfg(n int) machine.Config {
	cfg := machine.DefaultConfig(n)
	cfg.Backend = machine.BackendSeeded
	cfg.Net.LinkSerialization = 4
	return cfg
}

func stallOf(st JobStatus) int64 {
	return int64(st.Tally.Net.TotalStall())
}

// TestFeedbackReplaceSwapsPool drives the whole service-level loop: a
// contended job crosses the stall threshold, the pool group is re-placed
// exactly once, and the next identical submission runs under the
// re-placed mapping — which machine.RePlace on the first job's own
// measured feedback must predict exactly.
func TestFeedbackReplaceSwapsPool(t *testing.T) {
	cfg := contendedCfg(16)
	s := New(Config{Workers: 1, ReplaceStallThreshold: 1})
	defer s.Close()

	req := Request{Circuit: hub(16), Cfg: &cfg, Placement: "interaction", Shots: 1, Seed: 1}
	id1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := s.Wait(id1)
	if st1.State != StateDone {
		t.Fatalf("cold job: state %s, err %q", st1.State, st1.Err)
	}
	if st1.Mapping == nil {
		t.Fatal("interaction placement echoed a nil mapping")
	}

	// Predict the re-placed mapping from the cold job's own results: the
	// service must arrive at exactly what RePlace computes from them.
	fb := st1.Tally.Net
	rcfg := cfg
	rcfg.Net.MeshW, rcfg.Net.MeshH = st1.MeshW, st1.MeshH
	rcfg.Placement = "interaction"
	rcfg.Seed = st1.Seed
	want, _, err := machine.RePlace(hub(16), rcfg, st1.Mapping, fb)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, st1.Mapping) {
		t.Fatal("workload did not provoke a re-placement; the test needs a harder hotspot")
	}

	id2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := s.Wait(id2)
	if st2.State != StateDone {
		t.Fatalf("post-replace job: state %s, err %q", st2.State, st2.Err)
	}
	if !reflect.DeepEqual(st2.Mapping, want) {
		t.Fatalf("re-placed mapping %v, want RePlace's %v", st2.Mapping, want)
	}
	if !st2.CacheHit {
		t.Fatal("re-placed artifact not served as a cache hit")
	}
	if s1, s2 := stallOf(st1), stallOf(st2); s2 >= s1 {
		t.Fatalf("re-placement did not reduce stall: %d -> %d cycles", s1, s2)
	}

	// One-shot claim: a third identical job must not trigger another
	// replacement.
	id3, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st3, _ := s.Wait(id3)
	if st3.State != StateDone {
		t.Fatalf("third job: state %s, err %q", st3.State, st3.Err)
	}
	if !reflect.DeepEqual(st3.Mapping, want) {
		t.Fatalf("third job mapping %v drifted from re-placed %v", st3.Mapping, want)
	}
	if got := s.Stats().Replacements; got != 1 {
		t.Fatalf("Replacements = %d, want exactly 1", got)
	}
}

// replaceScenario runs the contended hotspot to a re-placement and
// returns the post-replacement mapping and the replacement count.
func replaceScenario(t *testing.T, shotWorkers int) ([]int, uint64) {
	t.Helper()
	cfg := contendedCfg(16)
	s := New(Config{Workers: 1, ShotWorkers: shotWorkers, ReplaceStallThreshold: 1})
	defer s.Close()
	req := Request{Circuit: hub(16), Cfg: &cfg, Placement: "interaction", Shots: 4, Seed: 1}
	for i := 0; i < 2; i++ {
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := s.Wait(id)
		if st.State != StateDone {
			t.Fatalf("job %d: state %s, err %q", i, st.State, st.Err)
		}
		if i == 1 {
			return st.Mapping, s.Stats().Replacements
		}
	}
	panic("unreachable")
}

// TestFeedbackReplaceWorkerCountInvariant: identical traffic must yield
// the identical re-placed mapping whether shots fan out across one
// replica or four — the determinism the commutative feedback digest buys.
func TestFeedbackReplaceWorkerCountInvariant(t *testing.T) {
	m1, r1 := replaceScenario(t, 1)
	m4, r4 := replaceScenario(t, 4)
	if r1 != r4 {
		t.Fatalf("replacement counts diverged: %d vs %d", r1, r4)
	}
	if r1 == 0 {
		t.Fatal("scenario did not trigger a replacement")
	}
	if !reflect.DeepEqual(m1, m4) {
		t.Fatalf("re-placed mapping depends on shot fan-out: %v vs %v", m1, m4)
	}
}

// TestFeedbackDisabledByDefault: with the threshold at its zero default
// the loop must stay fully inert — no replacements, stable mapping —
// even under heavy contention.
func TestFeedbackDisabledByDefault(t *testing.T) {
	cfg := contendedCfg(16)
	s := New(Config{Workers: 1})
	defer s.Close()
	req := Request{Circuit: hub(16), Cfg: &cfg, Placement: "interaction", Shots: 1, Seed: 1}
	var first []int
	for i := 0; i < 2; i++ {
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := s.Wait(id)
		if st.State != StateDone {
			t.Fatalf("job %d: state %s, err %q", i, st.State, st.Err)
		}
		if i == 0 {
			first = st.Mapping
		} else if !reflect.DeepEqual(st.Mapping, first) {
			t.Fatalf("mapping changed with feedback off: %v -> %v", first, st.Mapping)
		}
	}
	if got := s.Stats().Replacements; got != 0 {
		t.Fatalf("Replacements = %d with the loop disabled", got)
	}
}

// TestFeedbackForgottenWithEvictedGroup: the re-place state of a pool
// group lives exactly as long as the pool knows the group — it is the
// group's (TestPoolGroupStateLivesAndDiesWithTheGroup drives that
// directly). Eight distinct contended circuits through a pool of two leave
// at most two groups behind, re-placed ones whose replicas were dropped —
// the path that never re-enters the pool on its own — included. Submitted
// all at once to four workers, so that checkins, evictions, the feedback
// merge and the swap interleave.
func TestFeedbackForgottenWithEvictedGroup(t *testing.T) {
	cfg := contendedCfg(16)
	s := New(Config{Workers: 4, MaxPooledReplicas: 2, ReplaceStallThreshold: 1})
	var ids []string
	for i := 0; i < 8; i++ {
		c := hub(16)
		for k := 0; k <= i; k++ { // one more gate per circuit: eight fingerprints
			c.Gate(circuit.X, 0)
		}
		id, err := s.Submit(Request{Circuit: c, Cfg: &cfg, Placement: "interaction", Shots: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if st, _ := s.Wait(id); st.State != StateDone {
			t.Fatalf("job %d: state %s, err %q", i, st.State, st.Err)
		}
	}
	s.Close() // the workers' post-job bookkeeping has finished
	if got := s.Stats().Replacements; got == 0 {
		t.Fatal("no circuit was re-placed; the test needs a harder hotspot")
	}
	if len(s.pool.groups) > 2 || len(s.pool.order) != len(s.pool.groups) {
		t.Errorf("%d groups (%d in LRU order) outlive a pool of 2", len(s.pool.groups), len(s.pool.order))
	}
	var swapped uint64
	for _, g := range s.pool.groups {
		if g.artifact != nil {
			swapped++
		}
	}
	if got := s.Stats().Replacements; swapped > got {
		t.Errorf("%d groups hold a re-placed artifact, %d replacements counted", swapped, got)
	}
}
