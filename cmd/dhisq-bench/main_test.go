package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dhisq/internal/exp"
)

// A failing gate is legible: the run prints the gate with its value and
// bound, still writes the envelope — with pass: false in it — and exits 1.
// A later experiment still runs.
func TestFailingGateWritesEnvelopeAndExitsOne(t *testing.T) {
	dir := t.TempDir()
	registry := []exp.Experiment{
		{Name: "doctored", Run: func(a exp.Args) (*exp.Report, error) {
			return &exp.Report{
				Rows:  []map[string]int64{{"seed": a.Seed}},
				Gates: []exp.Gate{exp.NewGate("holds", 3, ">=", 2), exp.NewGate("speedup", 1.5, ">=", 20)},
				Text:  "one row\n",
			}, nil
		}},
		{Name: "healthy", Run: func(exp.Args) (*exp.Report, error) {
			return &exp.Report{Gates: []exp.Gate{exp.NewGate("holds", 0, "==", 0)}}, nil
		}},
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-exp", "all", "-seed", "9", "-out", dir}, registry, &stdout, &stderr); status != 1 {
		t.Fatalf("exit status %d, want 1\n%s%s", status, &stdout, &stderr)
	}
	for _, want := range []string{"=== doctored ===", "one row", "speedup", "1.5 >= 20", "FAIL", "=== healthy ==="} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, &stdout)
		}
	}
	rep := readEnvelope(t, filepath.Join(dir, "BENCH_doctored.json"))
	if rep.Exp != "doctored" || rep.Meta.Flags.Seed != 9 || rep.Meta.Go == "" {
		t.Errorf("envelope not stamped: %+v", rep)
	}
	if len(rep.Gates) != 2 || !rep.Gates[0].Pass || rep.Gates[1].Pass || rep.Gates[1].Bound != 20 {
		t.Errorf("envelope gates %+v", rep.Gates)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_healthy.json")); err != nil {
		t.Errorf("the experiment after a failed gate did not run: %v", err)
	}

	stdout.Reset()
	if status := run([]string{"-exp", "healthy", "-out", dir}, registry, &stdout, &stderr); status != 0 {
		t.Fatalf("passing gates exit %d, want 0", status)
	}
	if strings.Contains(stdout.String(), "doctored") {
		t.Errorf("-exp healthy ran another experiment:\n%s", &stdout)
	}
}

// An unknown -exp (kernels is one) runs nothing and lists every name in the
// registry.
func TestUnknownExperimentListsEveryName(t *testing.T) {
	registry := experiments()
	for _, name := range []string{"nosuch", "kernels"} {
		var stdout, stderr bytes.Buffer
		if status := run([]string{"-exp", name}, registry, &stdout, &stderr); status != 2 {
			t.Fatalf("-exp %s: exit status %d, want 2", name, status)
		}
		if !strings.Contains(stderr.String(), "unknown experiment \""+name+"\"") {
			t.Errorf("-exp %s: %s", name, &stderr)
		}
		for _, e := range registry {
			if !strings.Contains(stderr.String(), e.Name) {
				t.Errorf("the error does not name %q: %s", e.Name, &stderr)
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("an unknown experiment printed %q", &stdout)
		}
	}
}

// A flag value an experiment would clamp is refused at parsing — exit 2, the
// usage text, nothing run and nothing written — so meta.flags never records
// a value its rows were not measured at. -workers 0 (GOMAXPROCS) is a value.
func TestOutOfRangeFlagsAreRejected(t *testing.T) {
	ran := false
	registry := []exp.Experiment{{Name: "probe", Run: func(exp.Args) (*exp.Report, error) {
		ran = true
		return &exp.Report{Gates: []exp.Gate{exp.NewGate("holds", 0, "==", 0)}}, nil
	}}}
	for _, bad := range [][]string{{"-link-bw", "-5"}, {"-scale", "0"}, {"-points", "1"}, {"-workers", "-1"}} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if status := run(append([]string{"-exp", "probe", "-out", dir}, bad...), registry, &stdout, &stderr); status != 2 {
			t.Errorf("%v: exit status %d, want 2", bad, status)
		}
		if !strings.Contains(stderr.String(), "-link-bw >= 0") || !strings.Contains(stderr.String(), "Usage of dhisq-bench") {
			t.Errorf("%v: stderr lacks the bounds or the usage:\n%s", bad, &stderr)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); ran || stdout.Len() != 0 || len(left) != 0 {
			t.Errorf("%v: ran %v, printed %q, wrote %v", bad, ran, &stdout, left)
		}
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-exp", "probe", "-workers", "0", "-link-bw", "0", "-scale", "1", "-points", "2", "-out", t.TempDir()}, registry, &stdout, &stderr); status != 0 || !ran {
		t.Fatalf("the smallest legal values: exit %d, ran %v\n%s", status, ran, &stderr)
	}
}

func readEnvelope(t *testing.T, path string) exp.Report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep exp.Report
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s is not the one envelope: %v", path, err)
	}
	return rep
}

// Every BENCH_*.json committed at the repo root is the one envelope, says
// where its numbers came from, and has every gate green.
func TestCommittedBenchEnvelopes(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH files found: %v", err)
	}
	for _, path := range paths {
		rep := readEnvelope(t, path)
		if want := "BENCH_" + rep.Exp + ".json"; filepath.Base(path) != want {
			t.Errorf("%s holds experiment %q", path, rep.Exp)
		}
		if rep.Meta.Host == "" || rep.Meta.Go == "" || rep.Meta.Commit == "" {
			t.Errorf("%s: meta does not say where it ran: %+v", path, rep.Meta)
		}
		if rep.Rows == nil || len(rep.Gates) == 0 {
			t.Errorf("%s: no rows or no gates", path)
		}
		for _, g := range rep.Gates {
			if !g.Pass {
				t.Errorf("%s: committed with a red gate: %v", path, g)
			}
		}
	}
}

// Simulated cycles are deterministic, so the committed envelopes of the
// simulated-cycle experiments are gated exactly: rerun at the flags recorded
// in meta, each must produce the committed rows and gates again. A change
// that moves a cycle count regenerates the file and shows the move in review.
func TestCommittedBenchRowsReproduce(t *testing.T) {
	byName := map[string]exp.Experiment{}
	for _, e := range exp.Registry() {
		byName[e.Name] = e
	}
	for _, name := range []string{"collective", "fabric", "placement", "feedback", "remote"} {
		committed := readEnvelope(t, "../../BENCH_"+name+".json")
		fresh, err := byName[name].Run(committed.Meta.Flags)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := json.Marshal(fresh.Rows)
		if err != nil {
			t.Fatal(err)
		}
		var rows any
		if err := json.Unmarshal(raw, &rows); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, committed.Rows) {
			t.Errorf("%s: rerun at %+v does not reproduce the committed rows", name, committed.Meta.Flags)
		}
		if !reflect.DeepEqual(fresh.Gates, committed.Gates) {
			t.Errorf("%s: gates %v, committed %v", name, fresh.Gates, committed.Gates)
		}
	}
}
