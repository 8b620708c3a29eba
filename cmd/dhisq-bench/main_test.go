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

// An unknown -exp (kernels and sweep are two) runs nothing and lists every
// name in the registry.
func TestUnknownExperimentListsEveryName(t *testing.T) {
	registry := exp.Registry()
	for _, name := range []string{"nosuch", "kernels", "sweep"} {
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
// a value its rows were not measured at: Fig. 15 would run -seed 0 as 1.
func TestOutOfRangeFlagsAreRejected(t *testing.T) {
	ran := false
	registry := []exp.Experiment{{Name: "probe", Run: func(exp.Args) (*exp.Report, error) {
		ran = true
		return &exp.Report{Gates: []exp.Gate{exp.NewGate("holds", 0, "==", 0)}}, nil
	}}}
	for _, bad := range [][]string{{"-scale", "0"}, {"-seed", "0"}} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if status := run(append([]string{"-exp", "probe", "-out", dir}, bad...), registry, &stdout, &stderr); status != 2 {
			t.Errorf("%v: exit status %d, want 2", bad, status)
		}
		if !strings.Contains(stderr.String(), "-seed != 0") || !strings.Contains(stderr.String(), "Usage of dhisq-bench") {
			t.Errorf("%v: stderr lacks the bounds or the usage:\n%s", bad, &stderr)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); ran || stdout.Len() != 0 || len(left) != 0 {
			t.Errorf("%v: ran %v, printed %q, wrote %v", bad, ran, &stdout, left)
		}
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-exp", "probe", "-scale", "1", "-seed", "-1", "-out", t.TempDir()}, registry, &stdout, &stderr); status != 0 || !ran {
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

// Every experiment is deterministic, so its committed envelope is gated
// exactly: rerun at the flags recorded in meta, each must produce the
// committed rows and gates again. A change that moves a number regenerates
// the file and shows the move in review. fig15 at -scale 1 is
// the pin of all twelve Fig. 15 rows (seconds, so it lives here and not in
// internal/exp). The list is the registry, and a committed envelope that
// names no experiment of it is an orphan left by a deleted one, so it fails
// too.
func TestCommittedBenchRowsReproduce(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, e := range exp.Registry() {
		known[e.Name] = true
	}
	for _, path := range paths {
		if name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json"); !known[name] {
			t.Errorf("%s names no experiment of dhisq-bench", path)
		}
	}
	for _, e := range exp.Registry() {
		committed := readEnvelope(t, "../../BENCH_"+e.Name+".json")
		fresh, err := e.Run(committed.Meta.Flags)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
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
			t.Errorf("%s: rerun at %+v does not reproduce the committed rows", e.Name, committed.Meta.Flags)
		}
		if !reflect.DeepEqual(fresh.Gates, committed.Gates) {
			t.Errorf("%s: gates %v, committed %v", e.Name, fresh.Gates, committed.Gates)
		}
	}
}
