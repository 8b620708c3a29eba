package dhisq

import (
	"math"
	"strings"
	"testing"

	"dhisq/internal/machine"
	"dhisq/internal/quantum"
	"dhisq/internal/service"
)

// The root package is a façade; these tests exercise the public entry
// points end to end the way the README shows them.

func TestPublicRunGHZ(t *testing.T) {
	c := NewCircuit(9)
	c.H(0)
	for q := 0; q < 8; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < 9; q++ {
		c.MeasureInto(q, q)
	}
	cfg := DefaultMachineConfig(9)
	cfg.Backend = BackendStateVec
	cfg.Seed = 42
	res, m, err := Run(c, 3, 3, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misalignments != 0 || res.Violations != 0 {
		t.Fatalf("invariants: %d misalignments, %d violations", res.Misalignments, res.Violations)
	}
	first := m.Ctrls[0].ReadMem(0, 1)[0] & 1
	for q := 1; q < 9; q++ {
		if m.Ctrls[q].ReadMem(4*q, 1)[0]&1 != first {
			t.Fatal("GHZ correlation broken through the public API")
		}
	}
}

func TestPublicAssembleEncodeDecode(t *testing.T) {
	p, err := Assemble("addi $1,$0,5\ncw.i.i 3,7\nsync 1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	code, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(code)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != p.Len() {
		t.Fatal("round trip changed length")
	}
}

func TestPublicQASMRoundTrip(t *testing.T) {
	c := NewCircuit(2)
	c.H(0).CNOT(0, 1)
	c.MeasureInto(1, 0)
	src, err := WriteQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "OPENQASM 2.0") {
		t.Fatal("missing header")
	}
	back, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumQubits != 2 || len(back.Ops) != 3 {
		t.Fatalf("parsed shape: %d qubits, %d ops", back.NumQubits, len(back.Ops))
	}
}

func TestPublicLockstepComparison(t *testing.T) {
	b, err := BuildBenchmarkScaled("qft_n30", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMachineConfig(b.Qubits)
	cfg.Seed = 3
	res, _, err := Run(b.Circuit, b.MeshW, b.MeshH, b.Mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := Lockstep(b.Circuit, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || lock <= 0 {
		t.Fatal("degenerate makespans")
	}
	if float64(res.Makespan)/float64(lock) >= 1 {
		t.Fatalf("BISP should beat lock-step on dynamic QFT: %d vs %d", res.Makespan, lock)
	}
}

func TestPublicBenchmarkRegistry(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 12 {
		t.Fatalf("%d benchmark names", len(names))
	}
	if _, err := BuildBenchmark("no_such"); err == nil {
		t.Fatal("expected unknown-benchmark error")
	}
}

func TestPublicDurations(t *testing.T) {
	d := PaperDurations()
	if d.OneQubit != 5 || d.TwoQubit != 10 || d.Measure != 75 {
		t.Fatalf("paper durations = %+v", d)
	}
}

func TestPublicExperimentEntryPoints(t *testing.T) {
	if !Table1().AllMatch {
		t.Fatal("Table 1 mismatch")
	}
	f13, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if !f13.DeltaConstant {
		t.Fatal("Fig 13 drifted")
	}
	f14, err := Fig14([]int{2, 8}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Points) != 2 {
		t.Fatal("Fig 14 points")
	}
	spec, err := Fig11Spectroscopy(21, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spec.Fit.X0-4.62) > 0.02 {
		t.Fatalf("resonance %f", spec.Fit.X0)
	}
}

func TestPublicRunShotsAndSample(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).CNOT(0, 1).CNOT(1, 2)
	for q := 0; q < 3; q++ {
		c.MeasureInto(q, q)
	}
	cfg := DefaultMachineConfig(3)
	cfg.Seed = 7
	seq, err := RunShots(c, 2, 2, nil, cfg, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunShots(c, 2, 2, nil, cfg, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Histogram().String() != par.Histogram().String() {
		t.Fatal("parallel shots diverged from sequential through the public API")
	}
	for k, s := range seq.Shots {
		if s.Index != k || len(s.Bits) != 3 {
			t.Fatalf("shot %d malformed: %+v", k, s)
		}
		if key := s.Key(); !strings.HasPrefix(key, "000") && !strings.HasPrefix(key, "111") {
			t.Fatalf("non-GHZ outcome %q", key)
		}
	}
	h, err := Sample(c, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 24 {
		t.Fatalf("histogram counts %d shots, want 24", total)
	}
}

// A backend that cannot run the circuit — the tableau under a T gate, a
// dense state past quantum.MaxQubits — is an error from the facade and from
// admission, not a panic out of a shot or out of machine construction.
func TestBackendThatCannotRunTheCircuitIsAnError(t *testing.T) {
	nonClifford := NewCircuit(2)
	nonClifford.H(0).T(0).CNOT(0, 1)
	wide := NewCircuit(quantum.MaxQubits + 1)
	wide.H(0)
	for _, tc := range []struct {
		name    string
		c       *Circuit
		backend machine.BackendKind
		want    string
	}{
		{"stabilizer on H·T·CNOT", nonClifford, BackendStabilizer, "not Clifford"},
		{"statevec past MaxQubits", wide, BackendStateVec, "at most 26 qubits"},
	} {
		cfg := DefaultMachineConfig(tc.c.NumQubits)
		cfg.Backend = tc.backend
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic %v", tc.name, r)
				}
			}()
			if _, _, err := Run(tc.c, 0, 0, nil, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Run returned %v, want an error naming %q", tc.name, err, tc.want)
			}
			if _, err := service.Resolve(service.Request{Circuit: tc.c, Cfg: &cfg, Shots: 1}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Resolve returned %v, want an error naming %q", tc.name, err, tc.want)
			}
		}()
	}
}
