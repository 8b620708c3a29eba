// Package dhisq is a from-scratch Go implementation of Distributed-HISQ
// (MICRO 2025): a distributed quantum control architecture built around the
// hardware-agnostic HISQ instruction set and the booking-based BISP
// synchronization protocol.
//
// The package is a façade over the implementation packages:
//
//   - build dynamic quantum circuits (NewCircuit, the long-range CNOT
//     constructions of Fig. 14, the OpenQASM subset);
//   - compile them through the quantum software stack into per-controller
//     HISQ binaries (Compile / the machine's one-call Run path);
//   - execute them cycle-accurately on a simulated fleet of HISQ cores
//     connected by the hybrid mesh+tree fabric, with a quantum chip model
//     enforcing the two-qubit co-commitment invariant;
//   - run repeated shots efficiently (RunShots, Sample): the circuit is
//     compiled once, machines are reset in place between shots, and shots
//     fan out across parallel machine replicas with deterministic,
//     shot-indexed merging (internal/runner);
//   - reuse compiled programs across submissions: every compile goes
//     through a content-addressed, LRU-bounded artifact cache keyed on
//     (circuit, mapping, topology, options), so a repeated circuit is
//     lowered exactly once per process (internal/artifact, CacheStats);
//   - serve batches of jobs from a long-lived process (NewJobService /
//     internal/service, and the cmd/dhisq-serve HTTP daemon): submissions
//     get job IDs and per-job seeds, a bounded queue applies admission
//     control, and jobs sharing an artifact batch onto the same warm
//     machine replicas;
//   - persist compiled artifacts across restarts: the in-memory cache can
//     spill to a checksummed on-disk store (AttachArtifactStore /
//     internal/store), so a restarted process restores artifacts instead
//     of recompiling, and dhisq-serve shards jobs across a consistent-hash
//     cluster while streaming sweep results as NDJSON;
//   - reproduce the paper's evaluation (Table1, Fig11*, Fig13, Fig14,
//     Fig15, Fig16).
//
// See README.md for the quickstart, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for paper-versus-measured results.
package dhisq

import (
	"dhisq/internal/artifact"
	"dhisq/internal/baseline"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/core"
	"dhisq/internal/exp"
	"dhisq/internal/isa"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/service"
	"dhisq/internal/sim"
	"dhisq/internal/store"
	"dhisq/internal/telf"
	"dhisq/internal/workloads"
)

// ---------------------------------------------------------------------------
// Circuit layer
// ---------------------------------------------------------------------------

// Circuit is a dynamic quantum circuit: gates, measurements into classical
// bits, and parity-conditioned feed-forward operations.
type Circuit = circuit.Circuit

// Condition guards an operation on the parity of classical bits.
type Condition = circuit.Condition

// Durations are the fixed operation times of the evaluation (§6.4.1).
type Durations = circuit.Durations

// DualRail embeds a logical circuit on a data-rail + ancilla-rail device,
// converting every non-adjacent two-qubit gate to the Fig. 14 dynamic
// long-range construction.
type DualRail = circuit.DualRailEmbedding

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// ParseQASM reads the OpenQASM 2.0 subset.
func ParseQASM(src string) (*Circuit, error) { return circuit.ParseQASM(src) }

// WriteQASM renders a circuit as OpenQASM 2.0.
func WriteQASM(c *Circuit) (string, error) { return circuit.WriteQASM(c) }

// PaperDurations returns 20/40/300 ns gate/two-qubit/measure times in cycles.
func PaperDurations() Durations { return circuit.PaperDurations() }

// ---------------------------------------------------------------------------
// ISA layer
// ---------------------------------------------------------------------------

// Program is an assembled HISQ binary.
type Program = isa.Program

// Instr is one decoded HISQ instruction.
type Instr = isa.Instr

// Assemble translates HISQ assembly (the paper's Figure 12 syntax plus
// labels) into a program.
func Assemble(src string) (*Program, error) { return isa.Assemble(src) }

// EncodeProgram serializes a program to RV32I-compatible machine code.
func EncodeProgram(p *Program) ([]byte, error) { return isa.EncodeProgram(p) }

// DecodeProgram parses machine code back into a program.
func DecodeProgram(code []byte) (*Program, error) { return isa.DecodeProgram(code) }

// ---------------------------------------------------------------------------
// Machine layer
// ---------------------------------------------------------------------------

// Machine is a full Distributed-HISQ system: engine, fabric, HISQ cores and
// the chip model.
type Machine = machine.Machine

// MachineConfig parameterizes a machine.
type MachineConfig = machine.Config

// RunResult summarizes one execution.
type RunResult = machine.Result

// Compiled holds per-controller programs and codeword tables.
type Compiled = compiler.Compiled

// Controller is a single HISQ core (pipeline + TCU + SyncU + MsgU).
type Controller = core.Controller

// TELFLog is the timing-event log (the paper's TELF format, §6.4.1).
type TELFLog = telf.Log

// Backend kinds for the quantum chip model.
const (
	BackendAuto       = machine.BackendAuto
	BackendStateVec   = machine.BackendStateVec
	BackendStabilizer = machine.BackendStabilizer
	BackendSeeded     = machine.BackendSeeded
)

// DefaultMachineConfig sizes a machine for n qubits with the paper's
// constants (4 ns cycle, 2-cycle mesh links, 4-cycle tree hops).
func DefaultMachineConfig(n int) MachineConfig { return machine.DefaultConfig(n) }

// NewMachine builds a machine for a circuit on a meshW×meshH controller
// fabric.
func NewMachine(c *Circuit, meshW, meshH int, cfg MachineConfig) (*Machine, error) {
	return machine.NewForCircuit(c, meshW, meshH, cfg)
}

// Run compiles and executes a circuit end to end: mapping[q] gives the
// controller of qubit q (nil = identity). It returns the run result and the
// machine for inspection (TELF log, chip state, controller memories).
func Run(c *Circuit, meshW, meshH int, mapping []int, cfg MachineConfig) (RunResult, *Machine, error) {
	return machine.RunCircuit(c, meshW, meshH, mapping, cfg)
}

// ---------------------------------------------------------------------------
// Shot execution (the internal/runner subsystem)
// ---------------------------------------------------------------------------

// Shot is the outcome of one repetition: its index in the shot stream, the
// derived backend seed it ran with, the aggregate run result and the
// measured classical bits.
type Shot = runner.Shot

// ShotSet is the merged outcome of a multi-shot run, ordered by shot index
// regardless of which worker finished first.
type ShotSet = runner.ShotSet

// Histogram counts shots per classical-bitstring outcome (bit 0 leftmost).
type Histogram = runner.Histogram

// RunShots compiles the circuit once and executes it `shots` times,
// resetting machines in place between shots and fanning the work out
// across `workers` independent machine replicas (workers <= 0 picks
// GOMAXPROCS). Shot k runs with a seed derived from cfg.Seed via a
// SplitMix64 stream (shot 0 uses cfg.Seed itself), so results are
// byte-identical for every worker count and each shot is reproducible in
// isolation.
func RunShots(c *Circuit, meshW, meshH int, mapping []int, cfg MachineConfig, shots, workers int) (*ShotSet, error) {
	return runner.Run(runner.Spec{
		Circuit: c, MeshW: meshW, MeshH: meshH, Mapping: mapping, Cfg: cfg,
	}, shots, workers)
}

// SweepPoint is the outcome of one parameter setting of a sweep: its
// point index, the bound parameter map, and the merged shot set.
type SweepPoint = runner.SweepPoint

// RunSweep executes a parameterized circuit at every listed parameter
// point — `shots` repetitions each, fanned across `workers` replicas. The
// skeleton (build it with RZSym/RYSym/RXSym/CPhaseSym, or parse QASM with
// identifier angles like "rz(theta0) q[0];") is compiled exactly once
// under its bind-invariant structural fingerprint; each point then costs
// one BindParams table patch, never a re-placement or re-schedule, and
// the patched artifact is byte-identical to a full compile of the bound
// circuit. Point k's shot stream is seeded from DeriveSeed(cfg.Seed, k),
// so results are byte-identical for every worker count.
func RunSweep(c *Circuit, meshW, meshH int, mapping []int, cfg MachineConfig, points []map[string]float64, shots, workers int) ([]SweepPoint, error) {
	return runner.RunSweep(runner.Spec{
		Circuit: c, MeshW: meshW, MeshH: meshH, Mapping: mapping, Cfg: cfg,
	}, points, shots, workers)
}

// VQEAnsatz builds the hardware-efficient variational skeleton: `layers`
// rounds of symbolic RY rotations (parameters t<layer>_<qubit>) plus CNOT
// entangler chains. Bind it with Circuit.Bind, sweep it with RunSweep, or
// submit it with a JobRequest.Params/Sweep.
func VQEAnsatz(n, layers int) *Circuit { return workloads.VQEAnsatz(n, layers) }

// Sample is the one-call sampling path: it places the circuit on a
// near-square mesh with the default configuration, runs `shots`
// repetitions in parallel, and returns the outcome histogram.
func Sample(c *Circuit, shots int, seed int64) (Histogram, error) {
	return SamplePlaced(c, shots, seed, "")
}

// SamplePlaced is Sample with an explicit placement policy (see
// PlacementPolicies; "" = identity). The policy becomes part of the
// compiled artifact's fingerprint, so variants never share cache entries.
func SamplePlaced(c *Circuit, shots int, seed int64, policy string) (Histogram, error) {
	if err := placement.Valid(policy); err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Seed = seed
	cfg.Placement = policy
	set, err := RunShots(c, 0, 0, nil, cfg, shots, 0) // 0x0: the default near-square mesh
	if err != nil {
		return nil, err
	}
	return set.Histogram(), nil
}

// PlacementPolicies lists the registered placement policies of the
// compilation pipeline's Place pass ("identity", "rowmajor",
// "interaction"); MachineConfig.Placement and JobRequest.Placement accept
// any of them.
func PlacementPolicies() []string { return placement.Names() }

// ---------------------------------------------------------------------------
// Request serving (internal/artifact + internal/service)
// ---------------------------------------------------------------------------

// JobService is a long-lived batch-execution service: circuits go in as
// jobs with shot counts, results come back as deterministic merged shot
// sets. Compilation is shared through the artifact cache and jobs for the
// same circuit batch onto the same warm machine replicas. cmd/dhisq-serve
// wraps one of these in an HTTP daemon.
type JobService = service.Service

// JobConfig parameterizes a JobService (workers, queue depth, per-job
// shot fan-out, base seed, replica-pool budget).
type JobConfig = service.Config

// JobRequest is one submission: circuit, placement, shot count and an
// optional explicit base seed (0 lets the service derive one per job).
type JobRequest = service.Request

// JobStatus is a point-in-time snapshot of a submitted job.
type JobStatus = service.JobStatus

// JobPoint is one sweep point's outcome within a JobStatus.
type JobPoint = service.PointStatus

// ServiceStats reports queue depth, job counters, replica pooling and
// artifact-cache effectiveness for a JobService.
type ServiceStats = service.Stats

// CacheStats is a snapshot of the shared compiled-artifact cache.
type CacheStats = artifact.Stats

// Job lifecycle states.
const (
	JobQueued  = service.StateQueued
	JobRunning = service.StateRunning
	JobDone    = service.StateDone
	JobFailed  = service.StateFailed
)

// ErrQueueFull is returned by JobService.Submit when the bounded job
// queue is at depth (admission control).
var ErrQueueFull = service.ErrQueueFull

// NewJobService starts a job service with its worker pool running; stop
// it with Close.
func NewJobService(cfg JobConfig) *JobService { return service.New(cfg) }

// ArtifactCacheStats snapshots the process-wide compiled-artifact cache
// that Compile, Run, RunShots, Sample and every JobService share.
func ArtifactCacheStats() CacheStats { return artifact.Shared.Stats() }

// AttachArtifactStore opens (or creates) a persistent on-disk artifact
// store under dir and attaches it beneath the shared compile cache:
// every fresh compile spills to it, and a later process restores from it
// instead of recompiling — cold starts become warm (DESIGN.md §10).
// maxBytes bounds the store (0 = the 512 MiB default); the least
// recently written artifacts are evicted beyond it. The store's files
// are versioned and checksummed; unreadable files are dropped, never
// served. Pass-through to what `dhisq-serve -store DIR` does at boot.
func AttachArtifactStore(dir string, maxBytes int64) error {
	st, err := store.Open(dir, maxBytes)
	if err != nil {
		return err
	}
	artifact.Shared.SetStore(st)
	return nil
}

// Lockstep executes a circuit under the paper's lock-step baseline
// (§6.4.3) with a seeded outcome source and returns its makespan in cycles.
func Lockstep(c *Circuit, seed int64) (sim.Time, error) {
	res, err := baseline.Run(c, baseline.DefaultConfig(chip.NewSeeded(seed)))
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// NetworkConfig parameterizes the hybrid mesh+tree fabric.
type NetworkConfig = network.Config

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Benchmark is one named Figure 15 workload with its mesh shape and
// qubit-to-controller mapping.
type Benchmark = workloads.Benchmark

// BenchmarkNames lists the Figure 15 suite in the paper's order.
func BenchmarkNames() []string { return workloads.Fig15Names() }

// BuildBenchmark constructs a Figure 15 benchmark at full size.
func BuildBenchmark(name string) (Benchmark, error) { return workloads.Build(name) }

// BuildBenchmarkScaled constructs a reduced-size variant (qubits divided by
// div) for quick runs.
func BuildBenchmarkScaled(name string, div int) (Benchmark, error) {
	return workloads.BuildScaled(name, div)
}

// ---------------------------------------------------------------------------
// Experiments (the paper's evaluation)
// ---------------------------------------------------------------------------

// Experiment result types.
type (
	Table1Result  = exp.Table1Result
	Fig11Circle   = exp.Fig11CircleResult
	Fig11Spectrum = exp.Fig11SpectroscopyResult
	Fig11RabiFit  = exp.Fig11RabiResult
	Fig11T1Fit    = exp.Fig11T1Result
	Fig13Result   = exp.Fig13Result
	Fig14Result   = exp.Fig14Result
	Fig15Result   = exp.Fig15Result
	Fig15Options  = exp.Fig15Options
	Fig16Result   = exp.Fig16Result
)

// Table1 evaluates the FPGA resource model against the paper's Table 1.
func Table1() Table1Result { return exp.Table1() }

// Fig11DrawCircle runs the phase-sweep readout calibration (Fig. 11a).
func Fig11DrawCircle(points int, seed int64) (Fig11Circle, error) {
	return exp.Fig11DrawCircle(points, seed)
}

// Fig11Spectroscopy runs the qubit-frequency sweep (Fig. 11b).
func Fig11Spectroscopy(points, shots int, seed int64) (Fig11Spectrum, error) {
	return exp.Fig11Spectroscopy(points, shots, seed)
}

// Fig11Rabi runs the amplitude sweep (Fig. 11c).
func Fig11Rabi(points, shots int, seed int64) (Fig11RabiFit, error) {
	return exp.Fig11Rabi(points, shots, seed)
}

// Fig11T1 runs the relaxation measurement (Fig. 11d).
func Fig11T1(points, shots int, seed int64) (Fig11T1Fit, error) {
	return exp.Fig11T1(points, shots, seed)
}

// Fig13 runs the two-board synchronization verification (§6.3, Figs. 12-13).
func Fig13() (Fig13Result, error) { return exp.Fig13SyncWaveforms() }

// Fig14 sweeps long-range CNOT distance: dynamic constant depth versus
// SWAP-routed linear depth.
func Fig14(distances []int, runMachine bool, seed int64) (Fig14Result, error) {
	return exp.Fig14LongRange(distances, runMachine, seed)
}

// Fig15 reproduces the runtime comparison across the benchmark suite.
func Fig15(opt Fig15Options) (Fig15Result, error) { return exp.Fig15Runtime(opt) }

// Fig16 reproduces the infidelity-versus-T1 comparison.
func Fig16(distance, repetitions int, t1us []float64, seed int64) (Fig16Result, error) {
	return exp.Fig16Fidelity(distance, repetitions, t1us, seed)
}

// AblationRow compares Fig. 6 booking-in-advance against the as-needed
// sync-immediately-before scheme (§2.1.3).
type AblationRow = exp.AblationRow

// AblationSyncAdvance isolates BISP's booking advance on the given
// benchmarks (nil = the qft family).
func AblationSyncAdvance(names []string, scaleDiv int, seed int64) ([]AblationRow, error) {
	return exp.AblationSyncAdvance(names, scaleDiv, seed)
}
