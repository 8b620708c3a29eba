package service

import (
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
)

func ghz4() *circuit.Circuit {
	c := circuit.New(4)
	c.H(0)
	c.CNOT(0, 1).CNOT(1, 2).CNOT(2, 3)
	for q := 0; q < 4; q++ {
		c.MeasureNew(q)
	}
	return c
}

// TestServiceMultiChipJob runs a chips=2 job end to end through the
// service: the status echoes the resolved chip count, the run generates
// EPR pairs, the histogram only contains public (original) bits, and the
// GHZ correlation survives the teleported gates.
func TestServiceMultiChipJob(t *testing.T) {
	s := New(Config{Workers: 1, ShotWorkers: 2})
	defer s.Close()
	id, err := s.Submit(Request{Circuit: ghz4(), Shots: 40, Seed: 5, Chips: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.Wait(id)
	if !ok || st.State != StateDone {
		t.Fatalf("job state %s err %q", st.State, st.Err)
	}
	if st.Chips != 2 {
		t.Fatalf("status echoes chips=%d, want 2", st.Chips)
	}
	if st.EPRPairs == 0 {
		t.Fatalf("multi-chip GHZ job generated no EPR pairs")
	}
	for key, n := range st.Histogram {
		if len(key) != 4 {
			t.Fatalf("histogram key %q spans %d bits, want the 4 public bits", key, len(key))
		}
		if key != "0000" && key != "1111" {
			t.Fatalf("GHZ correlation broken: %d shots of %q", n, key)
		}
	}
}

// TestServiceChipPoolSeparation: a chips=2 submission and a single-chip
// submission of the same circuit must land in different replica pools —
// the chip count is part of the compile fingerprint (artifact keyVersion
// 7), so the fingerprints themselves must differ.
func TestServiceChipPoolSeparation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	submit := func(chips int) JobStatus {
		id, err := s.Submit(Request{Circuit: ghz4(), Shots: 2, Seed: 3, Chips: chips})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := s.Wait(id)
		if st.State != StateDone {
			t.Fatalf("chips=%d job failed: %s", chips, st.Err)
		}
		return st
	}
	single := submit(0)
	multi := submit(2)
	if single.Fingerprint == multi.Fingerprint {
		t.Fatalf("chips=2 job shares fingerprint %s with single-chip job", multi.Fingerprint)
	}
	if one := submit(1); one.Fingerprint != single.Fingerprint {
		t.Fatalf("chips=1 fingerprint %s differs from chips=0 fingerprint %s", one.Fingerprint, single.Fingerprint)
	}
}

// TestServiceMultiChipValidation: admission rejects malformed multi-chip
// requests before any work queues.
func TestServiceMultiChipValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	negEPR := machine.DefaultConfig(4)
	negEPR.EPRLatency = -5
	if _, err := resolve(Request{Circuit: ghz4(), Shots: 1, Chips: 2}, negEPR); err == nil {
		t.Fatal("negative EPR latency: expected admission rejection")
	}
	cases := []Request{
		{Circuit: ghz4(), Shots: 1, Chips: -2},
		{Circuit: ghz4(), Shots: 1, Chips: 9},                             // more chips than qubits
		{Circuit: ghz4(), Shots: 1, Chips: 2, Mapping: []int{0, 1, 2, 3}}, // explicit mapping
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("case %d: expected admission rejection", i)
		}
	}
}
