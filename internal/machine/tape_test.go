package machine

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
)

// simulated is the oracle for one shot: Reset, Run, ReadBits.
func simulated(t *testing.T, m *Machine, seed int64) (Result, []int) {
	t.Helper()
	m.Reset(seed)
	return runOnce(t, m)
}

// shotsMatch runs seeds through Shot on m and through the oracle on ref.
func shotsMatch(t *testing.T, ctx string, m, ref *Machine, seeds ...int64) {
	t.Helper()
	for _, seed := range seeds {
		res, bits, err := m.Shot(seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", ctx, seed, err)
		}
		wantRes, wantBits := simulated(t, ref, seed)
		if !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(bits, wantBits) {
			t.Fatalf("%s seed %d: Shot returned\n%+v %v\nfull simulation\n%+v %v", ctx, seed, res, bits, wantRes, wantBits)
		}
	}
}

// TestShotTapesStaticPrograms: the first Shot of a static program is the
// full simulation, the rest come off its tape, all equal to the oracle;
// a feed-forward program is simulated every time.
func TestShotTapesStaticPrograms(t *testing.T) {
	cfg := DefaultConfig(16)
	m, ref := buildLoaded(t, cliffordCircuit(), 4, 4, cfg), buildLoaded(t, cliffordCircuit(), 4, 4, cfg)
	shotsMatch(t, "static", m, ref, 1, 2, 3, 4, 5, 1)
	if st := m.TapeStats(); st != (TapeStats{Replayed: 5}) {
		t.Fatalf("static program: %+v, want 5 replayed", st)
	}
	// Reset/Run/ReadBits stay the full simulation on a taped machine, and
	// do not disturb its tape.
	res, bits := simulated(t, m, 9)
	if wantRes, wantBits := simulated(t, ref, 9); !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(bits, wantBits) {
		t.Fatal("Reset/Run/ReadBits on a taped machine diverged from a fresh one")
	}
	shotsMatch(t, "static, after a direct run", m, ref, 6)
	if st := m.TapeStats(); st.Replayed != 6 {
		t.Fatalf("direct run disturbed the tape: %+v", st)
	}

	cfg = DefaultConfig(6)
	m, ref = buildLoaded(t, nonCliffordCircuit(), 3, 2, cfg), buildLoaded(t, nonCliffordCircuit(), 3, 2, cfg)
	shotsMatch(t, "feed-forward", m, ref, 1, 2, 3)
	if st := m.TapeStats(); st != (TapeStats{}) {
		t.Fatalf("feed-forward program touched the tape: %+v", st)
	}
}

// TestConfigThatReadsOutcomesIsNotTaped: with a collective digest the
// Result folds the bits, and with LogEvents a shot owes a TELF log — a
// static program under either is simulated every shot.
func TestConfigThatReadsOutcomesIsNotTaped(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"collective": func(c *Config) { c.Collective = "tree" },
		"log events": func(c *Config) { c.LogEvents = true },
	} {
		cfg := DefaultConfig(16)
		mutate(&cfg)
		m, ref := buildLoaded(t, cliffordCircuit(), 4, 4, cfg), buildLoaded(t, cliffordCircuit(), 4, 4, cfg)
		if !m.Loaded().Static() {
			t.Fatalf("%s: the program itself is static", name)
		}
		shotsMatch(t, name, m, ref, 1, 2, 3)
		if st := m.TapeStats(); st != (TapeStats{}) {
			t.Fatalf("%s: taped anyway: %+v", name, st)
		}
	}
}

// TestLoadKeepsTapeAcrossBindOnly: re-loading the artifact or a BindParams
// patch of it keeps the tape (and replays the patched angles); loading any
// other program drops it.
func TestLoadKeepsTapeAcrossBindOnly(t *testing.T) {
	skelCircuit := circuit.New(4)
	skelCircuit.RYSym(0, "a").CNOT(0, 1).RYSym(2, "b").CNOT(2, 3)
	for q := 0; q < 4; q++ {
		skelCircuit.MeasureInto(q, q)
	}
	cfg := DefaultConfig(4)
	cfg.Backend = BackendStateVec
	build := func() (*Machine, *compiler.Compiled) {
		m, err := NewForCircuit(skelCircuit, 2, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		skel, err := Compile(skelCircuit, nil, m.Cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		return m, skel
	}
	m, skel := build()
	ref, _ := build()
	load := func(vals map[string]float64) {
		t.Helper()
		bound, err := skel.BindParams(vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(bound); err != nil {
			t.Fatal(err)
		}
		if err := ref.Load(bound); err != nil {
			t.Fatal(err)
		}
	}
	load(map[string]float64{"a": 0.3, "b": 2.1})
	shotsMatch(t, "first binding", m, ref, 1, 2, 3)
	load(map[string]float64{"a": 1.9, "b": 0.4})
	shotsMatch(t, "second binding", m, ref, 1, 2, 3, 4, 5, 6, 7, 8)
	if err := m.Load(m.Loaded()); err != nil {
		t.Fatal(err)
	}
	shotsMatch(t, "re-Load", m, ref, 9)
	if st := m.TapeStats(); st != (TapeStats{Replayed: 11}) {
		t.Fatalf("two bindings and a re-Load: %+v, want one recording and 11 replays", st)
	}

	// A fresh compile of the same bound circuit is another program.
	bound, err := skelCircuit.Bind(map[string]float64{"a": 1.9, "b": 0.4})
	if err != nil {
		t.Fatal(err)
	}
	other, err := CompileUncached(bound, nil, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(other); err != nil {
		t.Fatal(err)
	}
	shotsMatch(t, "other program", m, ref, 1, 2)
	if st := m.TapeStats(); st != (TapeStats{Replayed: 12}) {
		t.Fatalf("after loading another program: %+v, want a new recording then one replay", st)
	}
}

// TestTapeFallback: an artifact whose MeasBits misstate what its program
// does — controller 0's measurement attributed to another bit — fails the
// recording shot's self-check. The machine counts it, keeps no tape, and
// goes on simulating in full, so every shot is still right.
func TestTapeFallback(t *testing.T) {
	cfg := DefaultConfig(16)
	m, ref := buildLoaded(t, cliffordCircuit(), 4, 4, cfg), buildLoaded(t, cliffordCircuit(), 4, 4, cfg)
	lying := *m.Loaded()
	lying.MeasBits = append([][]int(nil), lying.MeasBits...)
	lying.MeasBits[0] = nil // the program measures on controller 0; this says it does not
	if err := m.Load(&lying); err != nil {
		t.Fatal(err)
	}
	shotsMatch(t, "lying artifact", m, ref, 1, 2, 3, 4)
	if st := m.TapeStats(); st != (TapeStats{Fallbacks: 1}) {
		t.Fatalf("lying artifact: %+v, want one fallback and nothing replayed", st)
	}
}
