package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// Request describes one job: a circuit, its placement, and how many shots
// to run. It is the one declaration of a job's options: the JSON tags are
// dhisq-serve's wire names, RegisterFlags owns the dhisq-sim flag names,
// and Resolve is the only reading of what the fields mean — the daemon,
// the CLI's in-process run and cluster routing all go through it.
type Request struct {
	Circuit *circuit.Circuit `json:"-"`
	// MeshW/MeshH give the controller mesh; 0 picks a near-square mesh
	// for the circuit like the facade's Sample.
	MeshW, MeshH int `json:"-"`
	// Cfg overrides the machine configuration when non-nil (the mesh
	// fields are taken from MeshW/MeshH either way). The option fields
	// below overlay it.
	Cfg   *machine.Config `json:"-"`
	Shots int             `json:"shots"`
	// Seed, when non-zero, is the job's base seed; 0 lets the service
	// derive a per-job seed from its own seed stream.
	Seed    int64 `json:"seed,omitempty"`
	Mapping []int `json:"mapping,omitempty"` // qubit -> controller; nil = identity
	// Topo names the intra-layer fabric topology: "mesh", "torus" or
	// "tree" ("" defers to Cfg, then to mesh). LinkBW is the link
	// bandwidth as cycles per message (0 defers to Cfg, then to infinite:
	// contention off, DESIGN.md §6); RouterPorts caps the physical ports
	// per router (0 defers to Cfg, then to one per tree edge). Negative
	// values are rejected.
	Topo        string   `json:"topo,omitempty"`
	LinkBW      sim.Time `json:"link_bw,omitempty"`
	RouterPorts int      `json:"router_ports,omitempty"`
	// Placement names the placement policy the compiler applies when
	// Mapping is nil ("" defers to Cfg.Placement, then to identity).
	// Unknown names are rejected at admission, before any work queues.
	Placement string `json:"placement,omitempty"`
	// Schedule names the scheduling policy of the compiler's Schedule
	// pass ("" defers to Cfg.Schedule, then to the fixed replay).
	// Validated at admission exactly like Placement.
	Schedule string `json:"schedule,omitempty"`
	// Collective names a network.CollSchedule ("naive", "ring", "halving",
	// "tree", "auto") and switches the job onto the collective-aware
	// lowering plus the post-run digest reduce ("" defers to
	// Cfg.Collective, then to off). Validated at admission like the other
	// policy names.
	Collective string `json:"collective,omitempty"`
	// Chips splits the device into a multi-chip partition (machine
	// config Chips; 0/1 = the legacy single-chip machine). Cross-chip
	// two-qubit gates compile into EPR-mediated teleported gates, so
	// chip count is compile-relevant: it joins the artifact fingerprint
	// and thereby the replica-pool key, keeping pools chip-homogeneous.
	// Validated at admission (bounded by the circuit's qubit count,
	// incompatible with an explicit Mapping).
	Chips int `json:"chips,omitempty"`
	// EPRLatency overrides the EPR pair-generation latency in cycles for
	// multi-chip jobs (0 defers to Cfg.EPRLatency, then to the machine
	// default). Compile-relevant like Chips.
	EPRLatency sim.Time `json:"epr_latency,omitempty"`
	// Params binds the circuit's symbolic parameters for this job (QASM
	// angles written as identifiers, e.g. "rz(theta0) q[0];"). The
	// job is fingerprinted on the bind-invariant structural key, so every
	// binding of one skeleton shares a single compiled artifact (patched
	// per job by BindParams) and one replica pool. The map must supply
	// every symbolic parameter of the circuit. Mutually exclusive with
	// Sweep.
	Params map[string]float64 `json:"params,omitempty"`
	// Sweep runs the circuit at every listed parameter point — Shots
	// repetitions each, point k seeded from DeriveSeed(jobSeed, k) — all
	// inside one job against one compiled skeleton. Results arrive as
	// JobStatus.Points instead of a single ShotSet.
	Sweep []map[string]float64 `json:"sweep,omitempty"`
}

// RegisterFlags declares the eight per-job option flags on fs, bound to
// r's fields: the one place their names, defaults and help strings live.
func (r *Request) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&r.Topo, "topo", "mesh", "fabric topology: mesh, torus, or tree")
	fs.Int64Var(&r.LinkBW, "link-bw", 0, "link bandwidth as cycles per message (0 = infinite, contention off)")
	fs.IntVar(&r.RouterPorts, "router-ports", 0, "physical ports per router (0 = one per tree edge)")
	fs.StringVar(&r.Placement, "placement", "", "placement policy for unmapped circuits: identity, rowmajor, interaction, or congestion (default identity)")
	fs.StringVar(&r.Schedule, "schedule", "", "compiler scheduling policy: fixed or padded (default fixed)")
	fs.StringVar(&r.Collective, "collective", "", "fabric collective schedule: naive, ring, halving, tree, or auto (default off; turns on collective-aware feed-forward lowering and the post-run digest reduce)")
	fs.IntVar(&r.Chips, "chips", 0, "split the device into N chips; cross-chip 2q gates run as EPR-mediated teleported gates (0/1 = single chip)")
	fs.Int64Var(&r.EPRLatency, "epr-latency", 0, "EPR pair-generation latency in cycles for multi-chip runs (0 = machine default)")
}

// bindJob reports whether the request goes through the parameter-binding
// path (structural fingerprint + per-point BindParams).
func (r Request) bindJob() bool { return r.Params != nil || len(r.Sweep) > 0 }

// Submission is a job as it travels: the POST /v1/jobs body dhisq-serve
// decodes and dhisq-sim marshals. Exactly one of QASM or Bench names the
// circuit; every option is a Request field.
type Submission struct {
	QASM  string `json:"qasm,omitempty"`
	Bench string `json:"bench,omitempty"` // a workloads benchmark name
	Scale int    `json:"scale,omitempty"` // benchmark size divisor (< 1 = 1)
	Request
}

// DecodeSubmission decodes a POST /v1/jobs body. A field Submission does
// not declare is an error naming it — a misspelt option must not run as a
// default job — and so is anything after the object.
func DecodeSubmission(body []byte) (Submission, error) {
	var sub Submission
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		return sub, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return sub, fmt.Errorf("trailing data after the submission object")
	}
	return sub, nil
}

// Build turns the submission into a runnable Request: the circuit parsed
// from the QASM text, or the named benchmark built with its own mesh and
// mapping. Parameterized benchmarks (dvqe) carry a point-0 default binding
// so a bare {"bench": ...} runs; explicit params or a sweep always win, and
// QASM submissions never have a default.
func (s Submission) Build() (Request, error) {
	req := s.Request
	switch {
	case s.QASM != "" && s.Bench != "":
		return Request{}, fmt.Errorf("give qasm or bench, not both")
	case s.QASM != "":
		c, err := circuit.ParseQASM(s.QASM)
		if err != nil {
			return Request{}, fmt.Errorf("qasm: %w", err)
		}
		req.Circuit = c
	case s.Bench != "":
		b, err := workloads.BuildScaled(s.Bench, max(s.Scale, 1))
		if err != nil {
			return Request{}, err
		}
		req.Circuit, req.MeshW, req.MeshH, req.Mapping = b.Circuit, b.MeshW, b.MeshH, b.Mapping
		if !req.bindJob() {
			req.Params = b.DefaultParams
		}
	default:
		return Request{}, fmt.Errorf("submission needs qasm or bench")
	}
	return req, nil
}

// Admission is a submission resolved once: the request as given (Shots,
// Params and Sweep drive the run), the spec it runs as, and the fingerprint
// that is its one identity — artifact-cache key, replica-pool key and what
// -cluster routes on. That is the bind-invariant structural key for Params
// and Sweep jobs (every binding of one skeleton shares an artifact, a
// replica pool and a shard) and the full key otherwise: a pure function of
// the request, so every node of a cluster computes the same one.
type Admission struct {
	Req         Request
	Spec        runner.Spec
	Fingerprint artifact.Fingerprint
}

// MaxJobShots bounds one job's shots summed over its sweep points. A job's
// shot records are allocated before its first shot and kept with its status,
// ~312 bytes each, so the bound holds one job to ~330 MB: without it a
// single request could exhaust the daemon's memory.
const MaxJobShots = 1 << 20

// Resolve is the one admission: the request's option fields overlaid on the
// machine config (Cfg, else DefaultConfig), every check made — option
// ranges, policy names, parameter bindings — the config normalized by
// machine.Normalize (mesh defaulted and grown for a multi-chip expansion,
// backend and EPR latency resolved), and the result fingerprinted. The
// daemon, dhisq-sim's in-process run and cluster routing all start here, so
// a shard, a router and the CLI can never disagree about what a request
// means, whether it is valid, or which program it names. Spec.Cfg.Seed is
// the request's (0 = not chosen yet; Enqueue derives one).
func Resolve(req Request) (Admission, error) {
	if req.Circuit == nil {
		return Admission{}, fmt.Errorf("service: nil circuit")
	}
	if req.Shots < 1 {
		return Admission{}, fmt.Errorf("service: shots %d < 1", req.Shots)
	}
	if points := max(1, len(req.Sweep)); req.Shots > MaxJobShots/points {
		return Admission{}, fmt.Errorf("service: %d shots × %d sweep points exceeds MaxJobShots (%d)", req.Shots, points, MaxJobShots)
	}
	var cfg machine.Config
	if req.Cfg != nil {
		cfg = *req.Cfg
	} else {
		cfg = machine.DefaultConfig(req.Circuit.NumQubits)
	}
	cfg.Seed = req.Seed
	// Nothing downstream of an Admission can read a TELF log: a job that asked
	// for one shares replicas and commit tape with one that did not.
	cfg.LogEvents = false
	if req.Topo != "" {
		kind, err := network.ParseTopology(req.Topo)
		if err != nil {
			return Admission{}, err
		}
		cfg.Net.Topology = kind
	}
	cfg.Net.LinkSerialization = cmp.Or(req.LinkBW, cfg.Net.LinkSerialization)
	cfg.Net.RouterPorts = cmp.Or(req.RouterPorts, cfg.Net.RouterPorts)
	cfg.Placement = cmp.Or(req.Placement, cfg.Placement)
	cfg.Schedule = cmp.Or(req.Schedule, cfg.Schedule)
	cfg.Collective = cmp.Or(req.Collective, cfg.Collective)
	cfg.Chips = cmp.Or(req.Chips, cfg.Chips)
	cfg.EPRLatency = cmp.Or(req.EPRLatency, cfg.EPRLatency)
	// Validate what the job will actually compile and run with — whether it
	// arrived via the request or a caller-supplied Cfg — so bad values are
	// rejected here, before any work queues.
	if cfg.Net.LinkSerialization < 0 || cfg.Net.RouterPorts < 0 {
		return Admission{}, fmt.Errorf("service: link_bw and router_ports must be >= 0")
	}
	if cfg.Chips > 1 && req.Mapping != nil {
		return Admission{}, fmt.Errorf("service: explicit mapping with %d chips unsupported (the chip expansion adds communication qubits; use a placement policy)", cfg.Chips)
	}
	cfg, err := machine.Normalize(req.Circuit, req.MeshW, req.MeshH, cfg)
	if err != nil {
		return Admission{}, err
	}
	if err := cmp.Or(placement.Valid(cfg.Placement), compiler.ValidSchedule(cfg.Schedule)); err != nil {
		return Admission{}, err
	}
	if err := validateParams(req); err != nil {
		return Admission{}, err
	}
	// The one place a submission's circuit is hashed.
	keyFor := machine.KeyFor
	if req.bindJob() {
		keyFor = machine.StructuralKeyFor
	}
	fp, err := keyFor(req.Circuit, req.Mapping, cfg)
	if err != nil {
		return Admission{}, err
	}
	return Admission{
		Req: req, Fingerprint: fp,
		Spec: runner.Spec{
			Circuit: req.Circuit, MeshW: cfg.Net.MeshW, MeshH: cfg.Net.MeshH,
			Mapping: req.Mapping, Cfg: cfg,
		},
	}, nil
}

// validateParams rejects malformed parameter bindings at admission,
// before any work queues: a bind/sweep job must supply exactly the
// circuit's symbolic parameter set (NaN-free) at every point, and a plain
// job must not submit an unbound skeleton — its table angles would
// silently execute as zero.
func validateParams(req Request) error {
	if req.Params != nil && len(req.Sweep) > 0 {
		return fmt.Errorf("service: give params or sweep, not both")
	}
	if !req.bindJob() {
		if ub := req.Circuit.UnboundParams(); len(ub) > 0 {
			return fmt.Errorf("service: circuit has unbound parameters %v: supply params or sweep", ub)
		}
		return nil
	}
	syms := req.Circuit.Params()
	check := func(where string, vals map[string]float64) error {
		if len(vals) != len(syms) {
			return fmt.Errorf("service: %s binds %d parameters, circuit has %d (%v)",
				where, len(vals), len(syms), syms)
		}
		for _, name := range syms {
			v, ok := vals[name]
			if !ok {
				return fmt.Errorf("service: %s missing parameter %q", where, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("service: %s parameter %q is %v (angles must be finite)", where, name, v)
			}
		}
		return nil
	}
	if req.Params != nil {
		return check("params", req.Params)
	}
	for i, pt := range req.Sweep {
		if err := check(fmt.Sprintf("sweep point %d", i), pt); err != nil {
			return err
		}
	}
	return nil
}
