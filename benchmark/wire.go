package main

import (
	"encoding/json"
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/service"
	"dhisq/internal/workloads"
)

// submitRequest is the subset of dhisq-serve's POST /v1/jobs body the
// benchmark sends. The daemon's own type lives in package main of
// cmd/dhisq-serve and cannot be imported; only the JSON names are shared.
type submitRequest struct {
	QASM      string               `json:"qasm,omitempty"`
	Bench     string               `json:"bench,omitempty"`
	Scale     int                  `json:"scale,omitempty"`
	Shots     int                  `json:"shots"`
	Seed      int64                `json:"seed"`
	Placement string               `json:"placement,omitempty"`
	Chips     int                  `json:"chips,omitempty"`
	Sweep     []map[string]float64 `json:"sweep,omitempty"`
}

// pointResult and jobResult are the fields of the daemon's answer a user
// reads: they are what every check compares.
type pointResult struct {
	Index     int                `json:"index"`
	Params    map[string]float64 `json:"params"`
	Histogram map[string]int     `json:"histogram"`
	Makespan  int64              `json:"makespan_cycles"`
}

type jobResult struct {
	Histogram map[string]int `json:"histogram,omitempty"`
	Makespan  int64          `json:"makespan_cycles,omitempty"`
	Points    []pointResult  `json:"points,omitempty"`
}

// jobResponse is the daemon's job snapshot as the benchmark decodes it.
type jobResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`
	jobResult
}

// streamLine is one NDJSON record of GET /v1/jobs/{id}/stream.
type streamLine struct {
	Point *pointResult `json:"point,omitempty"`
	Job   *jobResponse `json:"job,omitempty"`
}

// canonical renders a result in the one byte form every comparison and
// digest uses (encoding/json sorts map keys).
func (r jobResult) canonical() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // maps of strings, ints and finite floats always marshal
	}
	return b
}

// makespanSum is the job's contribution to sim_makespan_cycles: shot 0 of
// a plain job, shot 0 of every point of a sweep.
func (r jobResult) makespanSum() int64 {
	if len(r.Points) == 0 {
		return r.Makespan
	}
	var sum int64
	for _, p := range r.Points {
		sum += p.Makespan
	}
	return sum
}

// resolved is a request turned into what the layers below the daemon take:
// the circuit, the runner spec the service would derive, and the sweep.
type resolved struct {
	circuit *circuit.Circuit
	spec    runner.Spec
	sweep   []map[string]float64
	shots   int
}

// parse builds the request's circuit the way the daemon's handler does.
func (r submitRequest) parse() (*circuit.Circuit, workloads.Benchmark, error) {
	if r.QASM != "" {
		c, err := circuit.ParseQASM(r.QASM)
		return c, workloads.Benchmark{}, err
	}
	b, err := workloads.BuildScaled(r.Bench, max(r.Scale, 1))
	return b.Circuit, b, err
}

// resolve mirrors the daemon's buildRequest plus the service's admission
// defaults for the fields the benchmark uses, so an in-process run sees the
// machine the daemon would build.
func (r submitRequest) resolve() (resolved, error) {
	c, b, err := r.parse()
	if err != nil {
		return resolved{}, fmt.Errorf("resolve: %w", err)
	}
	w, h := b.MeshW, b.MeshH
	if w <= 0 || h <= 0 {
		w, h = placement.AutoMesh(c.NumQubits)
	}
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Placement = r.Placement
	cfg.Chips = r.Chips
	cfg.Seed = r.Seed
	if total := cfg.TotalQubits(c.NumQubits); w*h < total {
		w, h = placement.AutoMesh(total)
	}
	cfg.Net.MeshW, cfg.Net.MeshH = w, h
	return resolved{
		circuit: c,
		spec:    runner.Spec{Circuit: c, MeshW: w, MeshH: h, Mapping: b.Mapping, Cfg: cfg},
		sweep:   r.Sweep,
		shots:   r.Shots,
	}, nil
}

// serviceRequest is the request as the in-process service takes it.
func (r submitRequest) serviceRequest() (service.Request, error) {
	c, b, err := r.parse()
	if err != nil {
		return service.Request{}, err
	}
	return service.Request{
		Circuit: c, MeshW: b.MeshW, MeshH: b.MeshH, Mapping: b.Mapping,
		Shots: r.Shots, Seed: r.Seed, Placement: r.Placement, Chips: r.Chips,
		Sweep: r.Sweep,
	}, nil
}

// resultOfSet and resultOfSweep fold runner output into the wire result.
func resultOfSet(set *runner.ShotSet) jobResult {
	res := jobResult{Histogram: set.Histogram()}
	if len(set.Shots) > 0 {
		res.Makespan = int64(set.Shots[0].Result.Makespan)
	}
	return res
}

func resultOfSweep(pts []runner.SweepPoint) jobResult {
	var res jobResult
	for _, p := range pts {
		one := resultOfSet(p.Set)
		res.Points = append(res.Points, pointResult{
			Index: p.Index, Params: p.Params, Histogram: one.Histogram, Makespan: one.Makespan,
		})
	}
	if len(res.Points) > 0 {
		res.Makespan = res.Points[0].Makespan // the daemon echoes point 0 at the top level
	}
	return res
}

// resultOfStatus folds an in-process service snapshot into the wire result.
func resultOfStatus(st service.JobStatus) jobResult {
	res := jobResult{Histogram: st.Histogram, Makespan: st.Makespan}
	for _, p := range st.Points {
		res.Points = append(res.Points, pointResult{
			Index: p.Index, Params: p.Params, Histogram: p.Histogram, Makespan: p.Makespan,
		})
	}
	return res
}
