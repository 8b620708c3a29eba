// Package machine assembles a complete Distributed-HISQ system: the
// simulation engine, the hybrid-topology fabric with its routers, one HISQ
// core per mesh position, and the quantum chip model — then loads compiled
// programs and runs them to completion. It is the top of the simulation
// stack that the experiments and the public API drive.
package machine

import (
	"cmp"
	"fmt"

	"dhisq/internal/artifact"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/core"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/quantum"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// BackendKind selects the quantum-state substrate.
type BackendKind int

const (
	// BackendAuto picks StateVec for small circuits, Stabilizer for Clifford
	// circuits, and Seeded otherwise.
	BackendAuto BackendKind = iota
	BackendStateVec
	BackendStabilizer
	BackendSeeded
)

// Config parameterizes a machine. Operation times and the measurement
// latency are the paper's fixed constants (circuit.PaperDurations,
// chip.MeasLatency), not options.
type Config struct {
	Net network.Config
	// Backend is the quantum-state substrate (Normalize resolves
	// BackendAuto). Part of the fingerprint as a word of its own.
	Backend BackendKind
	Seed    int64
	// LogEvents stores individual TELF events (disable for large runs;
	// counters are kept either way).
	LogEvents bool
	// Placement names the placement policy the compiler's Place pass uses
	// for circuits submitted without an explicit mapping ("" = identity,
	// the legacy byte-identical behavior; see internal/placement). Part of
	// the compile fingerprint via compileOptions, after Normalize has
	// resolved "" to its name.
	Placement string
	// Padded pads every sync in place instead of booking it in advance
	// (compiler.Options.Padded): the §2.1.3 side of the booking-advance
	// ablation (exp.AblationSyncAdvance). Part of the compile fingerprint
	// via CompileOptions.
	Padded bool
	// Chips splits the data qubits across this many chips (0 or 1 = the
	// single-chip legacy machine, byte-identical to before). A multi-chip
	// machine appends one communication qubit per chip after the data
	// qubits, sizes its backends and mesh for the total, and the compiler
	// teleports cross-chip two-qubit gates through the EPR resource
	// (DESIGN.md §12). Part of the compile fingerprint via CompileOptions.
	Chips int
	// EPRLatency is the cycle cost of one inter-chip EPR-pair generation
	// (0 = DefaultEPRLatency when Chips > 1). Part of the compile
	// fingerprint via CompileOptions.
	EPRLatency sim.Time
	// Artifacts is the compiled-artifact cache Compile consults (nil = the
	// process-wide artifact.Shared).
	// Injecting a private cache isolates cache accounting — the in-process
	// multi-shard cluster tests give each shard its own cache+store pair.
	// Deliberately not part of any fingerprint: which cache serves a
	// compile changes nothing about its output.
	Artifacts *artifact.Cache
}

// DefaultEPRLatency is the EPR-pair generation cost in cycles a multi-chip
// machine assumes when Config.EPRLatency is zero: 400 ns on the 4 ns grid —
// an optimistic-but-plausible heralded-entanglement figure, deliberately an
// order of magnitude above the two-qubit gate so remote gates are visibly
// expensive by default.
const DefaultEPRLatency sim.Time = 100

// effectiveEPRLatency resolves the EPR latency a machine built from cfg
// charges (0 for single-chip configs).
func (cfg Config) effectiveEPRLatency() sim.Time {
	switch {
	case cfg.Chips <= 1:
		return 0
	case cfg.EPRLatency > 0:
		return cfg.EPRLatency
	default:
		return DefaultEPRLatency
	}
}

// TotalQubits is the device qubit count a machine built from cfg for n data
// qubits carries: the data qubits plus one communication qubit per chip.
func (cfg Config) TotalQubits(n int) int {
	if cfg.Chips > 1 {
		return n + cfg.Chips
	}
	return n
}

// DefaultConfig sizes a machine for n qubits with the paper's constants.
func DefaultConfig(n int) Config {
	return Config{
		Net:       network.DefaultConfig(n),
		Backend:   BackendAuto,
		Seed:      1,
		LogEvents: false,
	}
}

// Machine is an assembled system.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Topo  *network.Topology
	Fab   *network.Fabric
	Ctrls []*core.Controller
	Chip  *chip.Model
	Log   *telf.Log

	loaded *compiler.Compiled

	// The commit tape of the loaded program (tape.go).
	tapeable bool       // loaded is static and no event log is kept
	tape     *chip.Tape // nil until a shot has been recorded
	tapeRes  Result     // the recorded shot's Result, every taped shot's too
	tapeStat TapeStats

	// The seeded outcome map of circ (outcomes.go).
	circ   *circuit.Circuit // what NewForCircuit built for; nil from New
	outMap []outcomeSource  // per public bit; nil until a TallyShot needs it
	outOK  bool             // outMap checked against the loaded program
	outOff bool             // a check failed: never again on this machine
	outRes Result           // the checking shot's EPRPairs and Net
}

// Normalize is the one derivation of the effective machine configuration:
// (circuit, mesh, Config) in, the Config a machine is built from and a key is
// computed from out. The mesh defaults to the smallest near-square one that
// fits (meshW or meshH <= 0) and is regrown when a multi-chip expansion's
// communication qubits no longer fit; chip count and EPR latency are checked
// and the latency resolved to what the chip charges; BackendAuto resolves on
// the device total, and an explicit backend that cannot run the circuit is
// an error. It is idempotent, so service.Resolve, NewForCircuit and
// the key can each apply it and agree by construction — the backend the key
// hashes is the normalized cfg.Backend, the one the replicas are built with.
func Normalize(c *circuit.Circuit, meshW, meshH int, cfg Config) (Config, error) {
	n := c.NumQubits
	if meshW <= 0 || meshH <= 0 {
		meshW, meshH = network.NearSquareMesh(n)
	}
	if cfg.Chips < 0 {
		return cfg, fmt.Errorf("machine: negative chip count %d", cfg.Chips)
	}
	if cfg.EPRLatency < 0 {
		return cfg, fmt.Errorf("machine: negative EPR latency %d", cfg.EPRLatency)
	}
	total := cfg.TotalQubits(n)
	if cfg.Chips > 1 {
		if cfg.Chips > n {
			return cfg, fmt.Errorf("machine: %d chips exceed %d qubits (each chip needs at least one data qubit)", cfg.Chips, n)
		}
		// The expansion appends one communication qubit per chip.
		if meshW*meshH < total {
			meshW, meshH = network.NearSquareMesh(total)
		}
	}
	cfg.Net.MeshW, cfg.Net.MeshH = meshW, meshH
	cfg.Placement = cmp.Or(cfg.Placement, placement.Default)
	cfg.EPRLatency = cfg.effectiveEPRLatency()
	cfg.Backend = resolveBackendFor(c, cfg.Backend, total)
	// An explicit backend that cannot hold this circuit is refused here, not
	// by a panic out of a shot or out of machine construction.
	switch {
	case cfg.Backend == BackendStabilizer && !c.IsClifford():
		return cfg, fmt.Errorf("machine: the stabilizer backend cannot run a circuit that is not Clifford")
	case cfg.Backend == BackendStateVec && total > quantum.MaxQubits:
		return cfg, fmt.Errorf("machine: the state-vector backend holds at most %d qubits, the device has %d", quantum.MaxQubits, total)
	}
	return cfg, nil
}

// ResolveBackend applies the BackendAuto rules for a circuit: dense
// state vector while it fits (≤14 qubits), stabilizer tableau for
// Clifford circuits, seeded outcome source otherwise. Non-Auto kinds
// pass through unchanged.
func ResolveBackend(c *circuit.Circuit, k BackendKind) BackendKind {
	return resolveBackendFor(c, k, c.NumQubits)
}

// resolveBackendFor is ResolveBackend with the device total (data + comm
// qubits) as the state-size criterion: a multi-chip expansion must not push
// a dense state vector past what fits.
func resolveBackendFor(c *circuit.Circuit, k BackendKind, total int) BackendKind {
	if k != BackendAuto {
		return k
	}
	switch {
	case total <= 14:
		return BackendStateVec
	case c.IsClifford():
		return BackendStabilizer
	default:
		return BackendSeeded
	}
}

// New builds the fabric, controllers and chip exactly as cfg says, for
// numQubits data qubits. cfg is taken as normalized — NewForCircuit is the
// entry point that normalizes, and nothing here resizes a mesh. New has no
// circuit, so BackendAuto — whose rules need one — resolves to the
// timing-only seeded substrate.
func New(cfg Config, numQubits int) (*Machine, error) {
	total := cfg.TotalQubits(numQubits)
	topo, err := network.NewTopology(cfg.Net)
	if err != nil {
		return nil, err
	}
	if cfg.Backend == BackendAuto {
		cfg.Backend = BackendSeeded
	}
	eng := sim.NewEngine()
	log := telf.NewLog()
	log.SetEnabled(cfg.LogEvents)
	fab := network.NewFabric(eng, topo, log)

	var backend chip.Backend
	switch cfg.Backend {
	case BackendStateVec:
		backend = chip.NewStateVec(total, cfg.Seed)
	case BackendStabilizer:
		backend = chip.NewStabilizer(total, cfg.Seed)
	default:
		backend = chip.NewSeeded(cfg.Seed)
	}
	if cfg.Chips > 1 {
		if ca, ok := backend.(chip.CommAware); ok {
			ca.SetCommFrom(numQubits)
		}
	}
	chipModel := chip.New(eng, backend)
	chipModel.EPRLatency = cfg.effectiveEPRLatency()

	m := &Machine{
		Cfg: cfg, Eng: eng, Topo: topo, Fab: fab,
		Chip: chipModel, Log: log,
	}
	m.Ctrls = make([]*core.Controller, topo.N)
	for i := range m.Ctrls {
		cc := core.Config{ID: i, Ports: 4, MemSize: 64 << 10}
		m.Ctrls[i] = core.NewController(eng, cc, fab, chipModel, log)
		fab.Attach(i, m.Ctrls[i])
	}
	chipModel.SetDelivery(func(node, ch int, val uint32, at sim.Time) {
		m.Ctrls[node].PostResult(ch, val, at)
	})
	return m, nil
}

// NewForCircuit builds the machine Normalize describes for a circuit on a
// meshW×meshH mesh (<= 0 picks the default mesh).
func NewForCircuit(c *circuit.Circuit, meshW, meshH int, cfg Config) (*Machine, error) {
	cfg, err := Normalize(c, meshW, meshH, cfg)
	if err != nil {
		return nil, err
	}
	m, err := New(cfg, c.NumQubits)
	if err != nil {
		return nil, err
	}
	m.circ = c
	return m, nil
}

// CompileOptions derives the compiler options this machine's programs are
// compiled with.
func (m *Machine) CompileOptions() compiler.Options {
	opt, _ := compileOptions(m.Cfg) // m.Cfg.Net built m.Topo, so its shape is valid
	return opt
}

// compileOptions derives the compiler options of a normalized cfg. The root
// router and controller count are arithmetic on the mesh
// (network.Config.Shape): neither options nor the key build a topology.
func compileOptions(cfg Config) (compiler.Options, error) {
	n, root, err := cfg.Net.Shape()
	if err != nil {
		return compiler.Options{}, err
	}
	opt := compiler.DefaultOptions(root, n)
	opt.Placement = cfg.Placement
	opt.Padded = cfg.Padded
	if cfg.Chips > 1 {
		// Chips <= 1 stays zero so a Chips=1 config fingerprints — and
		// compiles — identically to the legacy single-chip machine.
		opt.Chips = cfg.Chips
		opt.EPRLatency = cfg.effectiveEPRLatency()
	}
	return opt, nil
}

// key is the one fingerprint of (circuit, mapping, config): the compiled
// program's and, with the resolved backend hashed too, the machine's that
// runs it. cfg is normalized on its own mesh first, so the key of any
// config is the key of the machine NewForCircuit builds from it;
// structural selects the bind-invariant kind (artifact.Key).
func key(c *circuit.Circuit, mapping []int, cfg Config, structural bool) (artifact.Fingerprint, error) {
	cfg, err := Normalize(c, cfg.Net.MeshW, cfg.Net.MeshH, cfg)
	if err != nil {
		return artifact.Fingerprint{}, err
	}
	opt, err := compileOptions(cfg)
	if err != nil {
		return artifact.Fingerprint{}, err
	}
	return artifact.Key(c, mapping, cfg.Net, opt, int(cfg.Backend), structural), nil
}

// KeyFor is the cache key of Compile(c, mapping, cfg, false).
func KeyFor(c *circuit.Circuit, mapping []int, cfg Config) (artifact.Fingerprint, error) {
	return key(c, mapping, cfg, false)
}

// StructuralKeyFor is the cache key of Compile(c, mapping, cfg, true): every
// binding of one parameterized circuit shares it.
func StructuralKeyFor(c *circuit.Circuit, mapping []int, cfg Config) (artifact.Fingerprint, error) {
	return key(c, mapping, cfg, true)
}

// Compile lowers a circuit for the machine cfg describes, through the
// artifact cache (cfg.Artifacts, else the shared one): a repeat of the same
// (circuit, mapping, config) returns the cached per-controller binaries
// without recompiling. The returned artifact is shared — treat it as
// immutable, the contract Load and the runner replicas obey.
//
// structural compiles under the bind-invariant key, so every binding of a
// skeleton — a whole angle sweep — shares one compilation, patched per point
// with Compiled.BindParams (byte-identical to a full compile of the bound
// circuit; concrete circuits are legal too). A non-structural compile
// rejects unbound parameters: a table Param defaulting to 0 would silently
// execute as an angle-0 rotation.
func Compile(c *circuit.Circuit, mapping []int, cfg Config, structural bool) (*compiler.Compiled, error) {
	if ub := c.UnboundParams(); !structural && len(ub) > 0 {
		return nil, fmt.Errorf("machine: circuit has unbound parameters %v (Bind them, or compile structurally)", ub)
	}
	fp, err := key(c, mapping, cfg, structural)
	if err != nil {
		return nil, err
	}
	cp, _, err := cmp.Or(cfg.Artifacts, artifact.Shared).GetOrCompile(fp, func() (*compiler.Compiled, error) {
		return CompileUncached(c, mapping, cfg)
	})
	return cp, err
}

// CompileUncached runs the pass pipeline with nothing cached: what a cache
// miss pays, and the whole of the paths whose meaning depends on paying it
// every time — the rebuild oracle, re-placement probes, compile-cost
// measurements. It builds a topology, never a machine: the Place pass reads
// mesh distances from it and the BISP windows are calibrated on it.
func CompileUncached(c *circuit.Circuit, mapping []int, cfg Config) (*compiler.Compiled, error) {
	cfg, err := Normalize(c, cfg.Net.MeshW, cfg.Net.MeshH, cfg)
	if err != nil {
		return nil, err
	}
	opt, err := compileOptions(cfg)
	if err != nil {
		return nil, err
	}
	topo, err := network.NewTopology(cfg.Net)
	if err != nil {
		return nil, err
	}
	return compiler.NewPipeline().Run(&compiler.State{
		Circuit: c, Mapping: mapping, Topo: topo, Windows: topo, Opt: opt,
	})
}

// Load installs compiled programs and tables on every controller. A
// recorded commit tape survives only a BindParams patch of the program it
// was recorded from.
func (m *Machine) Load(cp *compiler.Compiled) error {
	if len(cp.Programs) != len(m.Ctrls) {
		return fmt.Errorf("machine: %d programs for %d controllers", len(cp.Programs), len(m.Ctrls))
	}
	for i, p := range cp.Programs {
		// Data memory is allocated as it is written, so a program that
		// needs more than the default just raises the bound.
		m.Ctrls[i].Cfg.MemSize = max(m.Ctrls[i].Cfg.MemSize, cp.MemBytes)
		m.Ctrls[i].Load(p)
		m.Chip.SetTable(i, cp.Tables[i])
	}
	m.retape(cp)
	m.loaded = cp
	return nil
}

// Loaded returns the artifact installed by the last Load (nil before any).
func (m *Machine) Loaded() *compiler.Compiled { return m.loaded }

// Reset rewinds a loaded machine to its just-loaded state so the same
// compiled program can run again without rebuilding anything: the engine
// drains and its clock rewinds, every controller clears back to pc 0 with
// its program in place, the routers drop pending bookings, the TELF log
// empties, and the chip resets its quantum state with the given seed. No
// component is reallocated — this is the cheap per-shot path that
// Shot and internal/runner are built on.
func (m *Machine) Reset(seed int64) {
	m.Eng.Reset()
	m.Log.Reset()
	m.Fab.Reset()
	m.Chip.Reset(seed)
	for _, c := range m.Ctrls {
		c.Reset()
	}
}

// DeriveSeed returns the backend seed for shot number `shot` of a run whose
// base seed is `base`. Shot 0 uses the base seed itself, so a one-shot run
// is bit-identical to the legacy build-run path; later shots draw from a
// SplitMix64 stream over (base, shot), so shot k is reproducible in
// isolation without replaying shots 0..k-1.
func DeriveSeed(base int64, shot int) int64 {
	if shot == 0 {
		return base
	}
	x := uint64(base) + uint64(shot)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Result summarizes a run.
type Result struct {
	Makespan      sim.Time // latest controller end time (cycles)
	Halted        bool     // every controller reached halt
	Violations    uint64   // TCU timing violations across controllers
	Misalignments int      // two-qubit co-commitment failures (chip)
	Overlaps      int      // per-qubit occupancy overlaps (chip)
	Inversions    int      // out-of-timestamp-order backend applications (chip)
	// SyncStall, RecvStall and NetStall are read off the TELF stall ledger
	// (telf.Log.Stalled): sync-gate pauses, recv waits, and the queueing of
	// the programs' own messages (0 without contention; router-originated
	// waits count only in Net).
	SyncStall    sim.Time
	RecvStall    sim.Time
	NetStall     sim.Time
	Instructions uint64
	Commits      uint64
	Gates        uint64
	Measurements uint64
	// EPRPairs counts inter-chip EPR-pair generations (0 on single-chip
	// machines) — the remote-gate resource consumption of the run.
	EPRPairs uint64
	// Net snapshots the fabric's congestion counters for this run.
	Net network.CongestionStats
	// RouterUtilization is the busiest single router port's occupancy
	// divided by the makespan (0 when contention is disabled or the run
	// was empty).
	RouterUtilization float64
}

// Run starts every controller and drives the engine until its queue is
// empty. A compiled program branches only forward, so it retires a bounded
// number of instructions and every run ends. Run returns the aggregate
// result, and a descriptive error if a controller is still unhalted when
// the queue drains (the system wedged).
func (m *Machine) Run() (Result, error) {
	for _, c := range m.Ctrls {
		c.Start()
	}
	m.Eng.Run(0)

	res := Result{Halted: true}
	for _, c := range m.Ctrls {
		if err := c.Err(); err != nil {
			return res, err
		}
		if !c.Halted() {
			res.Halted = false
		}
		if t := c.EndTime(); t > res.Makespan {
			res.Makespan = t
		}
		st := c.Stats
		res.Violations += st.Violations
		res.Instructions += st.Instrs
		res.Commits += st.Commits
	}
	res.SyncStall = m.Log.Stalled(telf.StallSync)
	res.RecvStall = m.Log.Stalled(telf.StallRecv)
	res.NetStall = m.Log.Stalled(telf.StallNet)
	res.Net = m.Fab.Congestion()
	if res.Net.Enabled && res.Makespan > 0 {
		res.RouterUtilization = float64(res.Net.PortBusiest) / float64(res.Makespan)
	}
	res.Misalignments = len(m.Chip.Violations)
	res.Overlaps = m.Chip.Overlaps
	res.Inversions = m.Chip.OrderInversions
	res.Gates = m.Chip.Gates
	res.Measurements = m.Chip.Measurements
	res.EPRPairs = m.Chip.EPRPairs
	if len(m.Chip.Errs) > 0 {
		return res, m.Chip.Errs[0]
	}
	if !res.Halted {
		for _, c := range m.Ctrls {
			if !c.Halted() {
				return res, fmt.Errorf("machine: controller %d wedged (%s at pc=%d)", c.Cfg.ID, c.Blocked(), c.PC())
			}
		}
	}
	return res, nil
}

// RunCircuit is the one-call path: compile, load, and one Shot at the
// configured seed.
func RunCircuit(c *circuit.Circuit, meshW, meshH int, mapping []int, cfg Config) (Result, *Machine, error) {
	m, err := NewForCircuit(c, meshW, meshH, cfg)
	if err != nil {
		return Result{}, nil, err
	}
	cp, err := Compile(c, mapping, m.Cfg, false)
	if err != nil {
		return Result{}, nil, err
	}
	if err := m.Load(cp); err != nil {
		return Result{}, nil, err
	}
	res, _, err := m.Shot(m.Cfg.Seed)
	return res, m, err
}

// publicBits is the length of a shot's readout: every classical bit of the
// loaded program, less the machine-internal teleport-correction bits a
// multi-chip expansion appended after Compiled.PublicBits.
func (m *Machine) publicBits() int {
	n := len(m.loaded.BitOwner)
	if pb := m.loaded.PublicBits; pb > 0 && pb < n {
		n = pb
	}
	return n
}

// ReadBits reads every public classical bit of the loaded program after a
// run. Bits that were never measured (owner < 0) read as 0. On multi-chip
// artifacts the teleport-correction bits after Compiled.PublicBits are
// machine-internal and excluded, so the result has the same shape as a
// single-chip run of the pre-expansion circuit.
func (m *Machine) ReadBits() ([]int, error) {
	if m.loaded == nil {
		return nil, fmt.Errorf("machine: ReadBits before Load")
	}
	bits := make([]int, m.publicBits())
	for b, owner := range m.loaded.BitOwner[:len(bits)] {
		if owner < 0 {
			continue
		}
		v, ok := m.Ctrls[owner].MemByte(4 * b)
		if !ok {
			return nil, fmt.Errorf("machine: bit %d address out of range", b)
		}
		bits[b] = int(v) & 1
	}
	return bits, nil
}
