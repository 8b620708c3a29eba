package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/exp"
	"dhisq/internal/machine"
	"dhisq/internal/runner"
	"dhisq/internal/workloads"
)

// sweepRecord is one BENCH_sweep.json row: the per-point cost of the two
// strategies for serving an angle sweep — a full Place→Lower→Schedule→
// Assemble compile of every bound circuit versus one structural compile
// plus a BindParams table patch per point — with what the sweep cost the
// compile cache and whether the two strategies' artifacts agreed. The
// costs and their ratio are informational: what bounds a point's bind is
// its allocation count (compiler.TestBindParamsAllocations).
type sweepRecord struct {
	Name               string  `json:"name"`
	Points             int     `json:"points"`
	Params             int     `json:"params"`
	CompileUsPerPoint  float64 `json:"compile_us_per_point"`
	BindUsPerPoint     float64 `json:"bind_us_per_point"`
	Speedup            float64 `json:"bind_speedup_vs_compile"`
	CacheMisses        uint64  `json:"cache_misses"`
	CacheHits          uint64  `json:"cache_hits"`
	IdenticalArtifacts bool    `json:"identical_artifacts"`
}

// sweepGates holds every swept family to the binding layer's contract:
//
//   - <name>.identical_artifacts: BindParams on the structural artifact is
//     reflect.DeepEqual to a fresh full compile of each bound circuit.
//   - <name>.cache_misses: the whole sweep through runner.RunSweep compiled
//     the skeleton exactly once.
func sweepGates(rows []sweepRecord) []exp.Gate {
	var gates []exp.Gate
	for _, r := range rows {
		gates = append(gates,
			exp.NewGate(r.Name+".identical_artifacts", exp.Truth(r.IdenticalArtifacts), "==", 1),
			exp.NewGate(r.Name+".cache_misses", float64(r.CacheMisses), "==", 1))
	}
	return gates
}

// bestNsPer runs fn(iters) for a few rounds and keeps the cheapest
// per-iteration cost, so a scheduler deschedule in one round does not
// skew the figure.
func bestNsPer(rounds, iters int, fn func(iters int)) float64 {
	best := math.MaxFloat64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		fn(iters)
		if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); ns < best {
			best = ns
		}
	}
	return best
}

// runSweep measures the parameter-sweep workload the binding layer exists
// for (VQE outer loops, spectroscopy-style phase sweeps).
func runSweep(a exp.Args) (*exp.Report, error) {
	points := a.Points
	cases := []struct {
		name  string
		circ  *circuit.Circuit
		point func(k int) map[string]float64
	}{
		{"vqe_n12x2", workloads.VQEAnsatz(12, 2), func(k int) map[string]float64 { return workloads.VQEAnsatzPoint(12, 2, k) }},
		{"qft_sweep_n16", workloads.QFTSweep(16), func(k int) map[string]float64 { return workloads.QFTSweepPoint(16, k) }},
	}
	rows := make([]sweepRecord, 0, len(cases))
	text := ""
	for _, cs := range cases {
		pts := make([]map[string]float64, points)
		for k := range pts {
			pts[k] = cs.point(k)
		}
		cfg := machine.DefaultConfig(cs.circ.NumQubits)
		cfg.Backend = machine.BackendSeeded
		cfg.Seed = a.Seed
		cfg.Artifacts = artifact.New(4) // not the process-wide cache: other experiments fill that
		// Neither side builds a machine to compile: the mesh is normalized
		// once and both compile from the config.
		cfg, err := machine.Normalize(cs.circ, 0, 0, cfg)
		if err != nil {
			return nil, err
		}

		// Both strategies time best-of-rounds: the bind loop's whole
		// window is a few hundred microseconds, so a single scheduler
		// deschedule or GC pause inside one round would swamp it.
		full := make([]*compiler.Compiled, points)
		compileNs := bestNsPer(3, points, func(int) {
			for k, p := range pts {
				var bc *circuit.Circuit
				if bc, err = cs.circ.Bind(p); err == nil {
					full[k], err = machine.CompileUncached(bc, nil, cfg)
				}
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}

		// Bind path: one structural compile, one table patch per point.
		skel, err := machine.Compile(cs.circ, nil, cfg, true)
		if err != nil {
			return nil, err
		}
		bound := make([]*compiler.Compiled, points)
		bindNs := bestNsPer(3, points, func(int) {
			for k, p := range pts {
				if bound[k], err = skel.BindParams(p); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}

		// End to end: the whole sweep through runner.RunSweep on a cold
		// cache of its own, so the miss count is this sweep's compiles.
		cfg.Artifacts = artifact.New(4)
		spec := runner.Spec{Circuit: cs.circ, MeshW: cfg.Net.MeshW, MeshH: cfg.Net.MeshH, Cfg: cfg}
		if _, err := runner.RunSweep(spec, pts, 1, a.Workers); err != nil {
			return nil, err
		}
		cache := cfg.Artifacts.Stats()
		row := sweepRecord{
			Name: cs.name, Points: points, Params: len(pts[0]),
			CompileUsPerPoint: compileNs / 1e3, BindUsPerPoint: bindNs / 1e3, Speedup: compileNs / bindNs,
			CacheMisses: cache.Misses, CacheHits: cache.Hits,
			IdenticalArtifacts: reflect.DeepEqual(full, bound),
		}
		rows = append(rows, row)
		text += fmt.Sprintf("%-16s %4d points  compile %8.1f us/pt  bind %6.2f us/pt  %7.1fx  misses=%d\n",
			row.Name, row.Points, row.CompileUsPerPoint, row.BindUsPerPoint, row.Speedup, row.CacheMisses)
	}
	return &exp.Report{Rows: rows, Gates: sweepGates(rows), Text: text}, nil
}
