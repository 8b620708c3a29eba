package telf_test

import (
	"slices"
	"strings"
	"testing"

	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/telf"
	"dhisq/internal/workloads"
)

// machineLog runs a feed-forward circuit on a contended fabric with event
// storage on and returns its log: every stall reason and most kinds occur.
func machineLog(t testing.TB) *telf.Log {
	t.Helper()
	c, err := workloads.Dynamic(workloads.QFT(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Backend = machine.BackendSeeded
	cfg.LogEvents = true
	cfg.Net.LinkSerialization = 8
	w, h := network.NearSquareMesh(c.NumQubits)
	_, m, err := machine.RunCircuit(c, w, h, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Log
}

// sameLedger fails unless a and b hold the same events, counts per kind
// and stall sums per reason.
func sameLedger(t *testing.T, a, b *telf.Log) {
	t.Helper()
	if !slices.Equal(a.Events, b.Events) {
		t.Fatalf("events differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for k := range 256 {
		if x, y := a.Count(telf.Kind(k)), b.Count(telf.Kind(k)); x != y {
			t.Fatalf("Count(%v) = %d vs %d", telf.Kind(k), x, y)
		}
	}
	for r := range int64(256) {
		if x, y := a.Stalled(r), b.Stalled(r); x != y {
			t.Fatalf("Stalled(%d) = %d vs %d", r, x, y)
		}
	}
}

// TestMachineLogRoundTrips holds a recorded machine log to Parse: its text
// reads back to the same events, kind counts and stall sums.
func TestMachineLogRoundTrips(t *testing.T) {
	l := machineLog(t)
	for _, r := range []int64{telf.StallSync, telf.StallRecv, telf.StallFMR, telf.StallNet} {
		if l.Stalled(r) == 0 {
			t.Errorf("the seed log has no stall of reason %d", r)
		}
	}
	back, err := telf.Parse(l.Text())
	if err != nil {
		t.Fatal(err)
	}
	sameLedger(t, l, back)
}

// FuzzParse holds Parse to Text: whatever it accepts is, line for line, the
// fields of its events' String, and that text parses back to the same
// events, kind counts and stall sums.
func FuzzParse(f *testing.F) {
	f.Add(machineLog(f).Text())
	f.Add("1 node=0 halt a=0 b=0 c=0c=7")
	f.Add("1 node=0 halt a=0 b=0 c=0 trailing junk")
	f.Add("4 node=2 net_stall a=-1 b=3 c=17")
	f.Fuzz(func(t *testing.T, s string) {
		l, err := telf.Parse(s)
		if err != nil {
			return
		}
		i := 0
		for _, line := range strings.Split(s, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			if i >= len(l.Events) {
				t.Fatalf("line %q has no event", line)
			}
			if want := strings.Fields(l.Events[i].String()); !slices.Equal(fields, want) {
				t.Fatalf("line %q parsed as %q", line, l.Events[i])
			}
			i++
		}
		if i != len(l.Events) {
			t.Fatalf("%d non-blank lines, %d events", i, len(l.Events))
		}
		back, err := telf.Parse(l.Text())
		if err != nil {
			t.Fatalf("Parse(Text()) = %v", err)
		}
		sameLedger(t, l, back)
	})
}
