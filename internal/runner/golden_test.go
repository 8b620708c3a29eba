package runner

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/telf"
	"dhisq/internal/workloads"
)

// The golden fixtures pin the end-to-end observable behavior of the whole
// stack — compiler, fabric, controllers, chip backend, shot merge — for
// three canonical workloads at fixed seeds. Any change that shifts a
// makespan by one cycle or flips one measurement outcome fails the
// byte-for-byte diff, so results cannot drift silently between PRs.
//
// Refresh intentionally-changed fixtures with:
//
//	go test ./internal/runner -run TestGolden -update
//
// and justify the diff in the PR description.
var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenShot is one shot's pinned observables.
type goldenShot struct {
	Seed     int64  `json:"seed"`
	Makespan int64  `json:"makespan_cycles"`
	Bits     string `json:"bits"`
}

// goldenRun is the committed fixture: everything a regression should catch.
// Chips is omitempty so the pre-multi-chip fixtures stay byte-identical —
// the single-chip configs' golden files are themselves the regression test
// for the "chips=0 unchanged" contract.
type goldenRun struct {
	Name      string         `json:"name"`
	Qubits    int            `json:"qubits"`
	Chips     int            `json:"chips,omitempty"`
	MeshW     int            `json:"mesh_w"`
	MeshH     int            `json:"mesh_h"`
	Seed      int64          `json:"seed"`
	Shots     int            `json:"shots"`
	Histogram map[string]int `json:"histogram"`
	PerShot   []goldenShot   `json:"per_shot"`
}

// goldenCases lists the pinned workloads. Sizes are chosen so the auto
// backend resolves to the dense state vector (<= 14 qubits): real sampled
// quantum outcomes, not just timing, are under regression.
func goldenCases() []struct {
	name  string
	chips int
	build func() *circuit.Circuit
} {
	return []struct {
		name  string
		chips int
		build func() *circuit.Circuit
	}{
		{"ghz_n9", 0, func() *circuit.Circuit { return workloads.GHZ(9) }},
		{"bv_n10", 0, func() *circuit.Circuit { return workloads.BV(10, workloads.AlternatingSecret) }},
		{"qft_n8", 0, func() *circuit.Circuit { return workloads.QFT(8) }},
		// A Bell pair split across two chips: the CNOT teleports via an EPR
		// pair, so the fixture pins the remote-gate expansion, the herald
		// traffic timing, and the feed-forward corrections byte-for-byte.
		{"remote_cnot_2chip", 2, func() *circuit.Circuit {
			c := circuit.New(4)
			c.H(0)
			c.CNOT(0, 2) // crosses the {0,1}|{2,3} contiguous partition
			c.CNOT(2, 3)
			for q := 0; q < 4; q++ {
				c.MeasureInto(q, q)
			}
			return c
		}},
	}
}

// goldenSeed is the first shot's seed of every pinned workload.
const goldenSeed = 7

// goldenConfig is the machine a pinned workload runs on.
func goldenConfig(chips int, c *circuit.Circuit) machine.Config {
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Seed = goldenSeed
	if chips > 1 {
		cfg.Chips = chips
		cfg.EPRLatency = 40
		cfg.Net.MeshW, cfg.Net.MeshH = network.NearSquareMesh(cfg.TotalQubits(c.NumQubits))
	}
	return cfg
}

func goldenRunFor(t *testing.T, name string, chips int, c *circuit.Circuit) goldenRun {
	t.Helper()
	const shots = 24
	cfg := goldenConfig(chips, c)
	set, err := Run(Spec{
		Circuit: c,
		MeshW:   cfg.Net.MeshW,
		MeshH:   cfg.Net.MeshH,
		Cfg:     cfg,
	}, shots, 1)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g := goldenRun{
		Name:      name,
		Qubits:    c.NumQubits,
		Chips:     cfg.Chips,
		MeshW:     cfg.Net.MeshW,
		MeshH:     cfg.Net.MeshH,
		Seed:      goldenSeed,
		Shots:     shots,
		Histogram: set.Histogram(),
	}
	for _, s := range set.Shots {
		g.PerShot = append(g.PerShot, goldenShot{
			Seed:     s.Seed,
			Makespan: int64(s.Result.Makespan),
			Bits:     s.Key(),
		})
	}
	return g
}

// TestGoldenFixtures re-runs every pinned workload and diffs the serialized
// result byte-for-byte against the committed fixture.
func TestGoldenFixtures(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := goldenRunFor(t, tc.name, tc.chips, tc.build())
			data, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, '\n')
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture %s (run with -update to create): %v", path, err)
			}
			if !bytes.Equal(data, want) {
				t.Errorf("%s drifted from its golden fixture.\nIf this change is intentional, refresh with:\n  go test ./internal/runner -run TestGolden -update\ngot:\n%swant:\n%s", tc.name, data, want)
			}
		})
	}
}

// TestGoldenLogsRoundTrip runs each pinned workload's first shot with event
// storage on and holds telf.Parse to its log's text: the same events,
// causes included.
func TestGoldenLogsRoundTrip(t *testing.T) {
	for _, tc := range goldenCases() {
		c := tc.build()
		cfg := goldenConfig(tc.chips, c)
		cfg.LogEvents = true
		_, m, err := machine.RunCircuit(c, cfg.Net.MeshW, cfg.Net.MeshH, nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		back, err := telf.Parse(m.Log.Text())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(m.Log.Events) == 0 || !slices.Equal(back.Events, m.Log.Events) {
			t.Fatalf("%s: %d events read back as %d", tc.name, len(m.Log.Events), len(back.Events))
		}
	}
}
