package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"dhisq/internal/circuit"
	"dhisq/internal/workloads"
)

// sizes are the operation counts of the workloads. They are constants of
// the benchmark, identical for any two commits being compared; the smoke
// test swaps in smallSizes to finish in seconds.
type sizes struct {
	warmSeeds     int // distinct per-job seeds per hot family
	warmShots     int
	heavyShots    int
	heavySeeds    int
	coldCensus    int // cold jobs verified byte-for-byte against the facade
	sweepPoints   int
	sweepShots    int
	sweepVariants int
}

var fullSizes = sizes{
	warmSeeds: 16, warmShots: 4,
	heavyShots: 250, heavySeeds: 4,
	coldCensus:  64,
	sweepPoints: 32, sweepShots: 8, sweepVariants: 4,
}

var smallSizes = sizes{
	warmSeeds: 2, warmShots: 2,
	heavyShots: 3, heavySeeds: 1,
	coldCensus:  6,
	sweepPoints: 2, sweepShots: 1, sweepVariants: 1,
}

// coldPerSecond is how many cold_compile jobs are generated ahead per
// second of window: four times what the daemon served at the commit that
// defined the benchmark (about 150 jobs/s), so that a faster commit or box
// still finds its jobs ready. A run that outruns it all the same is
// refused, not slowed: see workload.lateGen.
const coldPerSecond = 600

// openRate is warm_open's fixed Poisson arrival rate in jobs per second:
// about a quarter of warm_closed's throughput at the commit that defined
// the benchmark. The reference box's two vCPUs are granted between one and
// two cores' worth of time; at this rate daemon, clients and generator
// together stay under one, so the daemon runs below its knee either way.
const openRate = 50

// job is one generated request plus what is known about its answer before
// it is sent.
type job struct {
	family string
	req    submitRequest
	body   []byte // req as the POST /v1/jobs body
	// Analytic oracles, independent of any run of the simulator: every
	// histogram key starts with prefix (BV: the secret), and allEqual keys
	// repeat one bit (GHZ).
	prefix   string
	allEqual bool
}

func newJob(family string, req submitRequest) job {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings, ints and finite floats always marshal
	}
	return job{family: family, req: req, body: body}
}

// workload is one traffic shape: how jobs arrive and which jobs they are.
type workload struct {
	name string
	why  string
	// rate > 0 is an open loop with Poisson arrivals at that many jobs per
	// second; 0 is a closed loop.
	rate float64
	// clients is how many connections carry the load: one waiting caller
	// for a closed loop, two for the open loop's independent users.
	clients     int
	stream      bool // read results from /v1/jobs/{id}/stream
	shotsPerJob int  // points × shots, for shots_per_s
	// jobs[:census] are the workload's distinct jobs: each is checked
	// against the facade, and their makespans sum to sim_makespan_cycles.
	// A cycling workload repeats them forever; cold_compile continues with
	// further never-repeating jobs from next.
	jobs   []job
	census int
	next   func() job // nil for cycling workloads
	mu     sync.Mutex // guards jobs while next extends it
	// timing is set while the measured window runs; lateGen counts the jobs
	// that had to be generated inside it, at the daemon's expense. Any is
	// one too many: the run is refused.
	timing  atomic.Bool
	lateGen int
	// warmup is how many jobs from the front of the stream are sent before
	// timing starts (charged to setup_s).
	warmup int
}

// jobAt returns the i-th job of the stream, generating up to it if the
// stream never repeats. Generating ahead (jobAt of the last index wanted)
// keeps that cost out of the timed window.
func (w *workload) jobAt(i int) *job {
	if w.next == nil {
		return &w.jobs[i%len(w.jobs)]
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.jobs) <= i {
		w.jobs = append(w.jobs, w.next())
		if w.timing.Load() {
			w.lateGen++
		}
	}
	return &w.jobs[i]
}

var workloadNames = []string{"warm_closed", "warm_open", "shots_heavy", "cold_compile", "sweep_stream"}

var workloadWhy = map[string]string{
	"warm_closed":  "closed loop over 3 hot QASM families, cache and pool hit on every job: admission, queue, pool checkout and JSON dominate, machine.Run is a small share",
	"warm_open":    "same jobs as Poisson arrivals at a quarter of capacity, timed from the due time: a saved millisecond moves p50 by a millisecond and p95 by more",
	"shots_heavy":  "250-shot jobs, feed-forward BV and batchable GHZ alternating: over 90% of wall is machine.Run plus readout; admission is amortised",
	"cold_compile": "every job a distinct circuit, 1 shot: parse, compile passes, machine construction, load and store spill dominate, with LRU eviction",
	"sweep_stream": "32-point sweeps of a 2-chip VQE skeleton read as NDJSON: bind, load and dense-statevector shots with EPR remote gates do the work",
}

func mustQASM(c *circuit.Circuit) string {
	s, err := circuit.WriteQASM(c)
	if err != nil {
		panic(fmt.Sprintf("benchmark: generated circuit does not render: %v", err))
	}
	return s
}

// seedFrom draws a per-job seed; 0 would let the daemon pick its own.
func seedFrom(rng *rand.Rand) int64 { return rng.Int63() | 1 }

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name, why: workloadWhy[name], clients: 1}
	switch name {
	case "warm_closed", "warm_open":
		bv, err := workloads.BuildScaled("bv_n400", 8)
		if err != nil {
			return nil, err
		}
		qft, err := workloads.BuildScaled("qft_n30", 1)
		if err != nil {
			return nil, err
		}
		families := []struct {
			name string
			qasm string
		}{
			{"ghz_n8", mustQASM(workloads.GHZ(8))},
			{"bv_n400_s8", mustQASM(bv.Circuit)},
			{"qft_n30", mustQASM(qft.Circuit)},
		}
		for s := 0; s < sz.warmSeeds; s++ {
			for _, f := range families {
				j := newJob(f.name, submitRequest{QASM: f.qasm, Shots: sz.warmShots, Seed: seedFrom(rng)})
				j.allEqual = f.name == "ghz_n8"
				if f.name == "bv_n400_s8" {
					j.prefix = bvSecret(bv.Logical, workloads.AlternatingSecret)
				}
				w.jobs = append(w.jobs, j)
			}
		}
		w.shotsPerJob = sz.warmShots
		// One pass over the census compiles each family, pools its
		// replicas, and is enough work for setup_s to be more than the
		// noise of starting a process.
		w.warmup = len(w.jobs)
		if name == "warm_open" {
			w.rate, w.clients = openRate, 2
		}
	case "shots_heavy":
		bv, err := workloads.BuildScaled("bv_n400", 8)
		if err != nil {
			return nil, err
		}
		ghz := mustQASM(workloads.GHZ(128))
		for s := 0; s < sz.heavySeeds; s++ {
			j := newJob("bv_n400_s8", submitRequest{Bench: "bv_n400", Scale: 8, Shots: sz.heavyShots, Seed: seedFrom(rng)})
			j.prefix = bvSecret(bv.Logical, workloads.AlternatingSecret)
			w.jobs = append(w.jobs, j)
			j = newJob("ghz_n128", submitRequest{QASM: ghz, Shots: sz.heavyShots, Seed: seedFrom(rng)})
			j.allEqual = true
			w.jobs = append(w.jobs, j)
		}
		w.shotsPerJob = sz.heavyShots
		w.warmup = 2 // one job of each family compiles it and pools its replica
	case "cold_compile":
		// Sizes walk their range by position and every secret has the same
		// weight, so the mix costs the same under every seed; the seed picks
		// which bits are set, the per-job seeds and nothing else.
		seen := map[string]bool{}
		n := 0
		w.next = func() job {
			defer func() { n++ }()
			if n%2 == 1 {
				// The QFT's own angles repeat across jobs of one size; a
				// leading rotation by a per-job angle makes the circuit,
				// and so its artifact key, distinct.
				q := workloads.QFT(8 + n/2%7)
				lc := circuit.New(q.NumQubits).RZGate(0, 1e-3+float64(n)*1e-6).Append(q)
				return coldJob("qft_dyn", lc, "", rng)
			}
			size := 16 + n/2%17
			for {
				bits := make([]bool, size-1)
				for _, i := range rng.Perm(size - 1)[:(size-1)/2] {
					bits[i] = true
				}
				secret := bvSecret(size, func(i int) bool { return bits[i] })
				if seen[secret] {
					continue
				}
				seen[secret] = true
				return coldJob("bv_dyn", workloads.BV(size, func(i int) bool { return bits[i] }), secret, rng)
			}
		}
		w.census = sz.coldCensus
		w.jobAt(w.census - 1)
		w.shotsPerJob = 1
		w.warmup = w.census
	case "sweep_stream":
		const qubits, layers = 12, 2
		skeleton := mustQASM(workloads.DistributedVQE(qubits, layers))
		for v := 0; v < sz.sweepVariants; v++ {
			points := make([]map[string]float64, sz.sweepPoints)
			for k := range points {
				points[k] = workloads.DistributedVQEPoint(qubits, layers, v*sz.sweepPoints+k)
			}
			w.jobs = append(w.jobs, newJob("dvqe_n12", submitRequest{
				QASM: skeleton, Shots: sz.sweepShots, Seed: seedFrom(rng),
				Chips: 2, Placement: "interaction", Sweep: points,
			}))
		}
		w.stream = true
		w.shotsPerJob = sz.sweepPoints * sz.sweepShots
		w.warmup = 1 // the skeleton compile and its replica
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if w.census == 0 {
		w.census = len(w.jobs)
	}
	return w, nil
}

// coldJob converts a logical circuit to its dynamic dual-rail form and
// wraps it as a one-shot QASM job.
func coldJob(family string, logical *circuit.Circuit, secret string, rng *rand.Rand) job {
	dyn, err := workloads.Dynamic(logical)
	if err != nil {
		panic(fmt.Sprintf("benchmark: %s does not convert: %v", family, err))
	}
	j := newJob(family, submitRequest{QASM: mustQASM(dyn), Shots: 1, Seed: seedFrom(rng)})
	j.prefix = secret
	return j
}

// bvSecret renders the secret of an n-qubit Bernstein–Vazirani circuit as
// the classical bits an ideal run measures, bit 0 leftmost.
func bvSecret(n int, secret func(int) bool) string {
	var b strings.Builder
	for i := 0; i < n-1; i++ {
		if secret(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// oracle checks a result against what is known without simulating.
func (j *job) oracle(res jobResult) error {
	if j.prefix == "" && !j.allEqual {
		return nil
	}
	for key := range res.Histogram {
		if !strings.HasPrefix(key, j.prefix) {
			return fmt.Errorf("%s: outcome %q does not start with the secret %q", j.family, key, j.prefix)
		}
		if j.allEqual && strings.Trim(key, key[:1]) != "" {
			return fmt.Errorf("%s: outcome %q mixes 0 and 1", j.family, key)
		}
	}
	return nil
}
