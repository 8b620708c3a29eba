package machine

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
)

// buildLoaded assembles a machine for c, compiles and loads it.
func buildLoaded(t *testing.T, c *circuit.Circuit, meshW, meshH int, cfg Config) *Machine {
	t.Helper()
	m, err := NewForCircuit(c, meshW, meshH, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(c, nil, m.Cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(cp); err != nil {
		t.Fatal(err)
	}
	return m
}

func cliffordCircuit() *circuit.Circuit {
	// 16 qubits forces the stabilizer backend under BackendAuto.
	n := 16
	c := circuit.New(n)
	c.H(0)
	for q := 0; q < n-1; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

func nonCliffordCircuit() *circuit.Circuit {
	// T gates + a conditioned correction: dense backend, feed-forward path.
	c := circuit.New(6)
	c.H(0).T(0).CNOT(0, 1).T(1).H(2).CNOT(2, 3)
	c.MeasureInto(3, 0)
	c.CondGate(circuit.X, circuit.Condition{Bits: []int{0}, Parity: 1}, 4)
	c.T(4).CNOT(4, 5)
	for q := 0; q < 6; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// run executes and snapshots everything the reset invariant promises:
// the aggregate result and the measured classical bits.
func runOnce(t *testing.T, m *Machine) (Result, []int) {
	t.Helper()
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	bits, err := m.ReadBits()
	if err != nil {
		t.Fatal(err)
	}
	return res, bits
}

// TestResetRerunBitIdentical is the satellite determinism check: for a
// Clifford and a non-Clifford workload, Reset + re-run yields a
// bit-identical Result (makespan, commits, gates, measured bits) to a
// freshly built machine with the same seed.
func TestResetRerunBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name         string
		c            *circuit.Circuit
		meshW, meshH int
	}{
		{"clifford", cliffordCircuit(), 4, 4},
		{"non-clifford", nonCliffordCircuit(), 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 99
			cfg := DefaultConfig(tc.c.NumQubits)
			cfg.Seed = seed

			m := buildLoaded(t, tc.c, tc.meshW, tc.meshH, cfg)
			res1, bits1 := runOnce(t, m)

			// Same machine, reset in place, same seed.
			m.Reset(seed)
			res2, bits2 := runOnce(t, m)

			// Fresh machine, same seed.
			fresh := buildLoaded(t, tc.c, tc.meshW, tc.meshH, cfg)
			res3, bits3 := runOnce(t, fresh)

			if !reflect.DeepEqual(res1, res2) {
				t.Fatalf("reset re-run result diverged:\n  first %+v\n  reset %+v", res1, res2)
			}
			if !reflect.DeepEqual(res1, res3) {
				t.Fatalf("reset machine diverged from fresh build:\n  reset %+v\n  fresh %+v", res1, res3)
			}
			if !reflect.DeepEqual(bits1, bits2) || !reflect.DeepEqual(bits1, bits3) {
				t.Fatalf("measured bits diverged: first %v reset %v fresh %v", bits1, bits2, bits3)
			}
			if res1.Makespan <= 0 || res1.Commits == 0 || res1.Gates == 0 {
				t.Fatalf("degenerate run: %+v", res1)
			}
		})
	}
}

// TestShotMatchesFreshMachines checks the compile-once/reset-per-shot
// path against a fresh machine per shot with the same derived seed.
func TestShotMatchesFreshMachines(t *testing.T) {
	c := cliffordCircuit()
	cfg := DefaultConfig(c.NumQubits)
	cfg.Seed = 5

	m := buildLoaded(t, c, 4, 4, cfg)
	for k := 0; k < 4; k++ {
		res, bits, err := m.Shot(DeriveSeed(cfg.Seed, k))
		if err != nil {
			t.Fatal(err)
		}
		shotCfg := cfg
		shotCfg.Seed = DeriveSeed(cfg.Seed, k)
		fresh := buildLoaded(t, c, 4, 4, shotCfg)
		want, wantBits := runOnce(t, fresh)
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("shot %d: Shot %+v != fresh machine %+v", k, res, want)
		}
		if !reflect.DeepEqual(bits, wantBits) {
			t.Fatalf("shot %d: Shot bits %v != fresh machine %v", k, bits, wantBits)
		}
	}
}

// TestDeriveSeed pins the stream's contract: shot 0 is the base seed, later
// shots are distinct and stable.
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(123, 0) != 123 {
		t.Fatal("shot 0 must use the base seed")
	}
	seen := map[int64]int{123: 0}
	for k := 1; k < 1000; k++ {
		s := DeriveSeed(123, k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between shots %d and %d", prev, k)
		}
		seen[s] = k
		if s != DeriveSeed(123, k) {
			t.Fatal("derivation not stable")
		}
	}
}

// TestNewResolvesAuto pins the satellite fix: machine.New resolves
// BackendAuto to the seeded backend instead of silently falling through.
func TestNewResolvesAuto(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Net.MeshW, cfg.Net.MeshH = 2, 2
	m, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.Backend != BackendSeeded {
		t.Fatalf("New left Backend=%v, want BackendSeeded", m.Cfg.Backend)
	}
}
