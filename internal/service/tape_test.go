package service

import (
	"reflect"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
	"dhisq/internal/runner"
)

// TestTapeCounters: Stats says how often the commit tape ran. A static
// job's shots after its replica's first come off the tape, a repeat job on
// the pooled replica comes off it entirely, and nothing ever falls back.
func TestTapeCounters(t *testing.T) {
	svc := New(Config{Workers: 1, ShotWorkers: 1, Artifacts: artifact.New(8)})
	defer svc.Close()
	req := Request{Circuit: ghz(6), Shots: 10, Seed: 4}
	submitWait(t, svc, req)
	if st := svc.Stats(); st.TapedShots != 9 || st.TapeFallbacks != 0 {
		t.Fatalf("cold static job: taped %d fallbacks %d, want 9 and 0", st.TapedShots, st.TapeFallbacks)
	}
	req.Seed = 5
	submitWait(t, svc, req)
	if st := svc.Stats(); st.TapedShots != 19 || st.TapeFallbacks != 0 {
		t.Fatalf("repeat job on the pooled replica: taped %d fallbacks %d, want 19 and 0", st.TapedShots, st.TapeFallbacks)
	}
}

// TestLogEventsJobSharesGroupAndTape: no Submission field can ask for a TELF
// log and nothing downstream of an Admission could read one, so Resolve
// clears Cfg.LogEvents — a job that set it is the same job: it batches onto
// the replica a plain one warmed, and its shots come off that replica's tape.
func TestLogEventsJobSharesGroupAndTape(t *testing.T) {
	svc := New(Config{Workers: 1, ShotWorkers: 1, Artifacts: artifact.New(8)})
	defer svc.Close()
	req := Request{Circuit: ghz(6), Shots: 10, Seed: 4}
	plain := submitWait(t, svc, req)
	if st := svc.Stats(); st.TapedShots != 9 {
		t.Fatalf("plain static job: taped %d, want 9", st.TapedShots)
	}
	cfg := machine.DefaultConfig(6)
	cfg.LogEvents = true
	req.Cfg = &cfg
	logged := submitWait(t, svc, req)
	if !logged.Batched || logged.Fingerprint != plain.Fingerprint {
		t.Fatalf("LogEvents job: batched %v, fingerprint %s vs %s; want the plain job's pool group", logged.Batched, logged.Fingerprint, plain.Fingerprint)
	}
	if st := svc.Stats(); st.TapedShots != 19 || st.PooledReplicas != 1 {
		t.Fatalf("after the LogEvents job: taped %d on %d replicas, want 19 on 1", st.TapedShots, st.PooledReplicas)
	}
	if !reflect.DeepEqual(logged.Set, plain.Set) {
		t.Fatal("the LogEvents job's shots differ from the plain job's")
	}
}

// TestMultiChipExpansionIsNotTaped is the case the circuit-level predicate
// got wrong: GHZ(6) shows no feed-forward, but split over two chips its
// lowered program teleports a CNOT — conditioned corrections, extra bits.
// Through the service it must equal runner.Run byte for byte and never
// touch a tape.
func TestMultiChipExpansionIsNotTaped(t *testing.T) {
	svc := New(Config{Workers: 1, ShotWorkers: 2, Artifacts: artifact.New(8)})
	defer svc.Close()
	req := Request{Circuit: ghz(6), Shots: 12, Seed: 9, Chips: 2, Placement: "interaction"}
	adm, err := Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	spec := adm.Spec
	spec.Cfg.Artifacts = artifact.New(8)
	want, err := runner.Run(spec, req.Shots, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		st := submitWait(t, svc, req)
		if !reflect.DeepEqual(st.Set, want) {
			t.Fatalf("%s: chips=2 job diverged from runner.Run", pass)
		}
		if st.EPRPairs == 0 {
			t.Fatalf("%s: the partition cut no gate — the test no longer tests a teleport", pass)
		}
	}
	if st := svc.Stats(); st.TapedShots != 0 || st.TapeFallbacks != 0 {
		t.Fatalf("teleporting program: taped %d fallbacks %d, want 0 and 0", st.TapedShots, st.TapeFallbacks)
	}
}
