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
// it, per-shot records land at their shot index, and a run's Tally merges
// per-replica folds with an order-free Merge. Run with W workers is
// therefore byte-identical to W=1 and to rebuilding the machine and
// recompiling for every shot, which the package tests verify shot for shot.
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
	b.Grow(len(s.Bits))
	for _, bit := range s.Bits {
		b.WriteByte('0' + byte(bit&1))
	}
	return b.String()
}

// Histogram counts shots per classical-bitstring outcome.
type Histogram map[string]int

// Histogram counts the shot outcomes.
func (s *ShotSet) Histogram() Histogram {
	h := Histogram{}
	for _, shot := range s.Shots {
		h[shot.Key()]++
	}
	return h
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

// fanOut is the one work-distribution loop: it calls fn(r, k) for every k
// in [0, n), replica r pulling the next index as it frees up (a single
// replica runs a plain loop). fn stores its result at index k or folds it
// into replica r's own accumulator, so no merge depends on completion
// order. A panic in fn becomes that index's error. After a failure nothing
// more is dispatched and no index above the lowest failure runs, but every
// index below it still does: the error reported is always the lowest
// failing index's, as on one replica.
func fanOut(machines []*machine.Machine, n int, fn func(r, k int) error) error {
	call := func(r, k int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("runner: work item %d: %w", k, &PanicError{Value: p})
			}
		}()
		return fn(r, k)
	}
	if len(machines) == 1 {
		for k := 0; k < n; k++ {
			if err := call(0, k); err != nil {
				return err
			}
		}
		return nil
	}
	var mu sync.Mutex
	lowest, first := n, error(nil) // the lowest failing index so far, and its error
	failedBelow := func(k int) bool {
		mu.Lock()
		defer mu.Unlock()
		return lowest < k
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for r := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				if failedBelow(k) {
					continue
				}
				if err := call(r, k); err != nil {
					mu.Lock()
					if k < lowest {
						lowest, first = k, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for k := 0; k < n && !failedBelow(n); k++ {
		idx <- k
	}
	close(idx)
	wg.Wait()
	return first
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

// execShot executes shot k on an already-loaded replica and reads it out.
// Every path that runs shots funnels through here, so machine.Shot's commit
// tape — a static program simulates its control stack once per replica,
// not once per shot — reaches all of them with no option. folded marks a
// shot only a Tally reads: past shot 0, whose Result is the tally's Shot0,
// it is machine.TallyShot, which may serve the bits without running the
// control stack.
func execShot(m *machine.Machine, base int64, k int, folded bool) (Shot, error) {
	seed := machine.DeriveSeed(base, k)
	shot := m.Shot
	if folded && k > 0 {
		shot = m.TallyShot
	}
	res, bits, err := shot(seed)
	if err != nil {
		return Shot{}, fmt.Errorf("runner: shot %d: %w", k, err)
	}
	return Shot{Index: k, Seed: seed, Result: res, Bits: bits}, nil
}

// RunOn executes `shots` repetitions across the given already-loaded
// replicas, deriving shot k's seed from base via machine.DeriveSeed, and
// keeps every shot: RunPoints of the one plain point, for callers that want
// the per-shot record. Results land at their shot index, so the ShotSet is
// byte-identical for every replica count and completion order.
//
// Every machine must already be loaded with the same compiled artifact;
// each is reset before its first shot, so pool reuse cannot leak state
// between jobs.
func RunOn(machines []*machine.Machine, base int64, shots, numBits int) (*ShotSet, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("runner: RunOn with no machines")
	}
	set := &ShotSet{Shots: make([]Shot, max(shots, 0)), NumBits: numBits}
	keep := func(_ int, s Shot) { set.Shots[s.Index] = s }
	if _, err := RunPoints(machines, machines[0].Loaded(), base, []map[string]float64{nil}, shots, Observer{Shot: keep}); err != nil {
		return nil, err
	}
	return set, nil
}
