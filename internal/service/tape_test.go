package service

import (
	"reflect"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
	"dhisq/internal/runner"
	"dhisq/internal/workloads"
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
		if want := want.Tally(); !reflect.DeepEqual(st.Tally, &want) {
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

// TestSeededJobsFoldOffTheOutcomeMap: a seeded feed-forward job's shots
// past shot 0 and its replica's checking shot come off the outcome map
// (machine.TallyShot), counted as taped; a repeat job on the pooled,
// checked replica serves every shot but shot 0 so. Each tally equals
// runner.Run's, whose shots are every one simulated.
func TestSeededJobsFoldOffTheOutcomeMap(t *testing.T) {
	b, err := workloads.BuildScaled("qft_n30", 2)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, ShotWorkers: 1, Artifacts: artifact.New(8)})
	defer svc.Close()
	req := Request{Circuit: b.Circuit, Shots: 10, Seed: 4}
	for _, pass := range []struct {
		seed   int64
		stats  uint64
		whence string
	}{{4, 8, "cold"}, {5, 17, "warm"}} {
		req.Seed = pass.seed
		adm, err := Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		if adm.Spec.Cfg.Backend != machine.BackendSeeded {
			t.Fatalf("backend %v, want the seeded one", adm.Spec.Cfg.Backend)
		}
		spec := adm.Spec
		spec.Cfg.Artifacts = artifact.New(8)
		want, err := runner.Run(spec, req.Shots, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st, want := submitWait(t, svc, req), want.Tally(); !reflect.DeepEqual(st.Tally, &want) {
			t.Fatalf("%s: seeded job diverged from runner.Run", pass.whence)
		}
		if st := svc.Stats(); st.TapedShots != pass.stats || st.TapeFallbacks != 0 {
			t.Fatalf("%s: taped %d fallbacks %d, want %d and 0", pass.whence, st.TapedShots, st.TapeFallbacks, pass.stats)
		}
	}
}
