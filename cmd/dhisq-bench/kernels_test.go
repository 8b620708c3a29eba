package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestBestNsPerKeepsCheapestRound(t *testing.T) {
	calls := 0
	ns := bestNsPer(3, 1000, func(iters int) {
		calls++
		if iters != 1000 {
			t.Fatalf("iters = %d, want 1000", iters)
		}
	})
	if calls != 3 {
		t.Fatalf("fn ran %d rounds, want 3", calls)
	}
	if ns < 0 {
		t.Fatalf("negative ns/iter %f", ns)
	}
}

func TestGhzBenchmarkSpec(t *testing.T) {
	spec := ghzBenchmark(17, false)
	if spec.Circuit.NumQubits != 17 {
		t.Fatalf("qubits = %d", spec.Circuit.NumQubits)
	}
	if spec.MeshW*spec.MeshH < 17 {
		t.Fatalf("mesh %dx%d cannot hold 17 controllers", spec.MeshW, spec.MeshH)
	}
}

// The shot-row harness itself is load-bearing for the CI gates: a GHZ
// chain must read as static with every shot after the first taped (the
// row errors otherwise), with or without the outcome map, the two columns
// must agree on the histogram, and the costs must be honest. "Batchable"
// is what the static predicate was called when lanes consumed it.
func TestBenchShotRowBatchable(t *testing.T) {
	for _, resetFirst := range []bool{false, true} {
		spec := ghzBenchmark(9, resetFirst)
		spec.Cfg.Seed = 11
		row, err := benchShotRow("ghz_n9", "stabilizer", spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Static {
			t.Fatalf("GHZ row (reset first: %v) not static: %+v", resetFirst, row)
		}
		if row.FullMsPerShot <= 0 || row.TapedMsPerShot <= 0 {
			t.Fatalf("non-positive timing in %+v", row)
		}
	}
}

// A feed-forward program's row reports static: false and replays nothing.
func TestBenchShotRowFeedForward(t *testing.T) {
	spec, err := dvqeBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	row, err := benchShotRow("dvqe_n12_c2", "statevec", spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.Static {
		t.Fatalf("teleporting program read as static: %+v", row)
	}
}

func TestWriteBenchJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := kernelReport{StatevecGeomeanSpeedup: 2.5}
	if err := writeBenchJSON(dir, "kernels", in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out kernelReport
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.StatevecGeomeanSpeedup != 2.5 {
		t.Fatalf("round-trip lost the geomean: %+v", out)
	}
}
