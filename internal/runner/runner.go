// Package runner is the shot-execution subsystem: it compiles a circuit
// once and runs it many times, fanning the shots out across a pool of
// independent machine replicas.
//
// The paper's evaluation is dominated by repetition — calibration sweeps
// run points × shots executions (Fig. 11), Fig. 16 sweeps repetitions ×
// T1 settings, Fig. 15 runs whole benchmark suites — and the legacy path
// rebuilt the topology, fabric, controllers and chip and recompiled the
// circuit for every single execution. The runner instead exploits the
// machine-wide Reset path: one compile produces an immutable artifact
// (programs, codeword tables, bit owners) that W replicas share read-only,
// and each shot is a cheap reset+run on one replica. Compilation itself
// goes through the shared content-addressed cache (internal/artifact), so
// a repeat Run of a previously seen circuit skips even the one compile.
//
// Determinism is a hard invariant, not a best effort: shot k's backend
// seed is machine.DeriveSeed(base, k) regardless of which worker executes
// it, and merged results are ordered by shot index, not completion order.
// Run with W workers is therefore byte-identical to W=1 and to the legacy
// rebuild-per-shot path (RunRebuild), which the package tests verify
// shot-for-shot.
package runner

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
)

// Spec describes a repeatable execution: the circuit, its placement on the
// mesh, and the machine configuration. Cfg.Seed is the base seed of the
// shot stream.
type Spec struct {
	Circuit *circuit.Circuit
	MeshW   int
	MeshH   int
	Mapping []int // qubit -> controller; nil = identity
	Cfg     machine.Config
}

// Shot is the outcome of one repetition.
type Shot struct {
	Index  int
	Seed   int64 // backend seed this shot ran with
	Result machine.Result
	Bits   []int // classical bits in bit order (empty circuit = empty)
}

// ShotSet is the merged outcome of a multi-shot run, ordered by shot index.
type ShotSet struct {
	Shots   []Shot
	NumBits int
}

// Key renders a shot's classical bits as a bitstring, bit 0 leftmost.
func (s Shot) Key() string {
	var b strings.Builder
	for _, bit := range s.Bits {
		b.WriteByte('0' + byte(bit&1))
	}
	return b.String()
}

// Histogram counts shots per classical-bitstring outcome.
type Histogram map[string]int

// histogramGrain is the chunk size below which Histogram counts
// sequentially; larger shot sets count per-chunk partial histograms
// concurrently and merge them with TreeReduce.
const histogramGrain = 512

// Histogram aggregates the shot outcomes. Large sets are counted as
// per-chunk partial histograms merged over the host reduction tree
// (TreeReduce); map-key insertion order is irrelevant to a map, so the
// result is identical to the sequential count for any chunking.
func (s *ShotSet) Histogram() Histogram {
	count := func(shots []Shot) Histogram {
		h := Histogram{}
		for _, shot := range shots {
			h[shot.Key()]++
		}
		return h
	}
	if len(s.Shots) <= histogramGrain {
		return count(s.Shots)
	}
	parts := make([]Histogram, (len(s.Shots)+histogramGrain-1)/histogramGrain)
	var wg sync.WaitGroup
	for i := range parts {
		lo := i * histogramGrain
		hi := lo + histogramGrain
		if hi > len(s.Shots) {
			hi = len(s.Shots)
		}
		i, chunk := i, s.Shots[lo:hi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = count(chunk)
		}()
	}
	wg.Wait()
	h, _ := TreeReduce(parts, 1, mergeHistograms)
	return h
}

// mergeHistograms folds b into a and returns a (TreeReduce combiner; each
// partial enters exactly one combine call, so mutating a is safe).
func mergeHistograms(a, b Histogram) Histogram {
	for k, n := range b {
		a[k] += n
	}
	return a
}

// Keys returns the outcomes in lexicographic order (deterministic render).
func (h Histogram) Keys() []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the histogram one "bitstring count" line per outcome.
func (h Histogram) String() string {
	var b strings.Builder
	for _, k := range h.Keys() {
		fmt.Fprintf(&b, "%s %d\n", k, h[k])
	}
	return b.String()
}

// Replicas grows machines to want replicas of the spec, every new one
// loaded with art. It only builds and loads; compiling is the caller's (Run
// and RunSweep go through the cache, internal/service acquires the artifact
// under its admission fingerprint and grows its pool replicas here), so
// pooled and private machines are built one way. On error it returns the
// replicas it was handed plus those already built.
func Replicas(spec Spec, machines []*machine.Machine, art *compiler.Compiled, want int) ([]*machine.Machine, error) {
	for len(machines) < want {
		m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, spec.Cfg)
		if err != nil {
			return machines, err
		}
		if err := m.Load(art); err != nil {
			return machines, err
		}
		machines = append(machines, m)
	}
	return machines, nil
}

// PanicError is a panic recovered on a replica while it ran a shot or a
// point (a backend refusing a gate it cannot apply, say): the work item
// fails with it instead of taking the process down. The replica it ran on
// is in an unknown state; callers that pool machines must discard it.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// fanOut is the one work-distribution loop: it calls fn(m, k) for every k
// in [0, n), each replica pulling the next index as it frees up (a single
// replica runs a plain loop and stops at the first error). fn stores its
// own result at index k, so merge order never depends on completion order;
// a panic in fn becomes that index's error, and the lowest failing index
// is the one reported, so the failure is deterministic too.
func fanOut(machines []*machine.Machine, n int, fn func(m *machine.Machine, k int) error) error {
	call := func(m *machine.Machine, k int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("runner: work item %d: %w", k, &PanicError{Value: r})
			}
		}()
		return fn(m, k)
	}
	if len(machines) == 1 {
		for k := 0; k < n; k++ {
			if err := call(machines[0], k); err != nil {
				return err
			}
		}
		return nil
	}
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for _, m := range machines {
		wg.Add(1)
		go func(m *machine.Machine) {
			defer wg.Done()
			for k := range idx {
				errs[k] = call(m, k)
			}
		}(m)
	}
	for k := 0; k < n; k++ {
		idx <- k
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// start is the shared opening of Run and RunSweep: validate, resolve the
// worker count (workers <= 0 picks GOMAXPROCS; never more replicas than
// there are units to fan out), compile once through the artifact cache —
// under the bind-invariant structural key for a sweep, whose loaded artifact
// is the unbound skeleton patched per point by BindParams — and build that
// many replicas loaded with the result.
func start(spec Spec, structural bool, shots, units, workers int) ([]*machine.Machine, *compiler.Compiled, error) {
	if spec.Circuit == nil {
		return nil, nil, fmt.Errorf("runner: nil circuit")
	}
	if shots < 0 {
		return nil, nil, fmt.Errorf("runner: negative shot count %d", shots)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > units {
		workers = units
	}
	if workers == 0 {
		return nil, nil, nil
	}
	cfg := spec.Cfg
	cfg.Net.MeshW, cfg.Net.MeshH = spec.MeshW, spec.MeshH // they win over Cfg.Net's, as in NewForCircuit
	art, err := machine.Compile(spec.Circuit, spec.Mapping, cfg, structural)
	if err != nil {
		return nil, nil, err
	}
	machines, err := Replicas(spec, nil, art, workers)
	return machines, art, err
}

// Run compiles the spec once and executes `shots` repetitions across
// `workers` machine replicas (workers <= 0 picks GOMAXPROCS, capped at the
// shot count). The merged ShotSet is ordered by shot index and is
// byte-identical for every worker count.
func Run(spec Spec, shots, workers int) (*ShotSet, error) {
	machines, _, err := start(spec, false, shots, shots, workers)
	if err != nil {
		return nil, err
	}
	if shots == 0 {
		return &ShotSet{Shots: []Shot{}, NumBits: spec.Circuit.NumBits}, nil
	}
	return RunOn(machines, spec.Cfg.Seed, shots, spec.Circuit.NumBits)
}

// runShot executes shot k on an already-loaded replica and reads it out.
// Every path that runs shots funnels through here, so machine.Shot's commit
// tape — a static program simulates its control stack once per replica,
// not once per shot — reaches all of them with no option.
func runShot(m *machine.Machine, base int64, k int) (Shot, error) {
	seed := machine.DeriveSeed(base, k)
	res, bits, err := m.Shot(seed)
	if err != nil {
		return Shot{}, fmt.Errorf("runner: shot %d: %w", k, err)
	}
	return Shot{Index: k, Seed: seed, Result: res, Bits: bits}, nil
}

// RunOn executes `shots` repetitions across the given already-loaded
// replicas, deriving shot k's seed from base via machine.DeriveSeed. It
// is the deterministic merge core of Run, exported so callers that pool
// machines across calls reuse the exact same shot-indexed semantics:
// results land at their shot index, so the merged ShotSet is
// byte-identical for every replica count and completion order.
//
// Every machine must already be loaded with the same compiled artifact;
// each is reset before its first shot, so pool reuse cannot leak state
// between jobs.
func RunOn(machines []*machine.Machine, base int64, shots, numBits int) (*ShotSet, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("runner: RunOn with no machines")
	}
	if shots < 0 {
		return nil, fmt.Errorf("runner: negative shot count %d", shots)
	}
	set := &ShotSet{Shots: make([]Shot, shots), NumBits: numBits}
	err := fanOut(machines, shots, func(m *machine.Machine, k int) (err error) {
		set.Shots[k], err = runShot(m, base, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// RunRebuild is the legacy rebuild-per-shot reference path: every shot
// constructs a fresh machine and runs the compiler pipeline in full, never
// touching the artifact cache (a cached "rebuild" would no longer
// measure what it claims to). It exists as the semantic baseline the
// reset path is verified against and as the "before" side of the
// shot-throughput benchmarks; new code should call Run.
func RunRebuild(spec Spec, shots int) (*ShotSet, error) {
	if spec.Circuit == nil {
		return nil, fmt.Errorf("runner: nil circuit")
	}
	if shots < 0 {
		return nil, fmt.Errorf("runner: negative shot count %d", shots)
	}
	set := &ShotSet{Shots: make([]Shot, shots), NumBits: spec.Circuit.NumBits}
	for k := 0; k < shots; k++ {
		cfg := spec.Cfg
		cfg.Seed = machine.DeriveSeed(spec.Cfg.Seed, k)
		m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, cfg)
		if err != nil {
			return nil, err
		}
		cp, err := machine.CompileUncached(spec.Circuit, spec.Mapping, m.Cfg)
		if err != nil {
			return nil, err
		}
		if err := m.Load(cp); err != nil {
			return nil, err
		}
		res, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("runner: rebuild shot %d: %w", k, err)
		}
		bits, err := m.ReadBits()
		if err != nil {
			return nil, fmt.Errorf("runner: rebuild shot %d: %w", k, err)
		}
		set.Shots[k] = Shot{Index: k, Seed: cfg.Seed, Result: res, Bits: bits}
	}
	return set, nil
}
