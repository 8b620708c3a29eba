package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"dhisq/internal/artifact"
	"dhisq/internal/runner"
)

// facade runs a job in-process through the runner, the way the library
// facade does, and returns the result the daemon must reproduce. arts keeps
// these compiles out of the process-wide cache.
func facade(j *job, arts *artifact.Cache) (jobResult, error) {
	r, err := j.req.resolve()
	if err != nil {
		return jobResult{}, err
	}
	r.spec.Cfg.Artifacts = arts
	if len(r.sweep) > 0 {
		pts, err := runner.RunSweep(r.spec, r.sweep, r.shots, 1)
		if err != nil {
			return jobResult{}, err
		}
		return resultOfSweep(pts), nil
	}
	set, err := runner.Run(r.spec, r.shots, 1)
	if err != nil {
		return jobResult{}, err
	}
	return resultOfSet(set), nil
}

// censusOf maps a stream index to the distinct job it is an instance of,
// or -1 for a cold job past the census.
func (w *workload) censusOf(index int) int {
	if w.next == nil {
		return index % len(w.jobs)
	}
	if index < w.census {
		return index
	}
	return -1
}

// answered reports, per census job, whether any sample of it succeeded.
func (w *workload) answered(samples []sample) []bool {
	out := make([]bool, w.census)
	for i := range samples {
		if c := w.censusOf(samples[i].index); c >= 0 && samples[i].err == nil {
			out[c] = true
		}
	}
	return out
}

// verdict is the outcome of checking every sample of a run.
type verdict struct {
	attempted int
	failed    int
	messages  []string // the first few failures, for the log
	// Per census job, the daemon's answer in canonical bytes (nil if no
	// sample of it succeeded) and its makespan contribution.
	canonical [][]byte
	makespan  int64
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.messages) < 5 {
		v.messages = append(v.messages, fmt.Sprintf(format, args...))
	}
}

// digest is the SHA-256 of the census answers in census order.
func (v *verdict) digest() string {
	h := sha256.New()
	for _, c := range v.canonical {
		h.Write(c)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verify checks every sample: it completed, the analytic oracle holds, and
// — for every instance of a census job — the bytes equal the facade's.
func verify(w *workload, samples []sample) *verdict {
	v := &verdict{attempted: len(samples), canonical: make([][]byte, w.census)}

	// One facade run per census job that was answered, two at a time.
	want := make([][]byte, w.census)
	errs := make([]error, w.census)
	arts := artifact.New(artifact.DefaultCapacity)
	var wg sync.WaitGroup
	next := make(chan int)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				res, err := facade(&w.jobs[c], arts)
				want[c], errs[c] = res.canonical(), err
			}
		}()
	}
	for c, ok := range w.answered(samples) {
		if ok {
			next <- c
		}
	}
	close(next)
	wg.Wait()

	for i := range samples {
		s := &samples[i]
		j := w.jobAt(s.index)
		if s.err != nil {
			v.fail("job %d (%s): %v", s.index, j.family, s.err)
			continue
		}
		if err := j.oracle(s.res); err != nil {
			v.fail("job %d: oracle: %v", s.index, err)
			continue
		}
		c := w.censusOf(s.index)
		if c < 0 {
			continue
		}
		got := s.res.canonical()
		switch {
		case errs[c] != nil:
			v.fail("job %d (%s): facade: %v", s.index, j.family, errs[c])
		case !bytes.Equal(got, want[c]):
			v.fail("job %d (%s): daemon and facade differ:\n  daemon %.200s\n  facade %.200s", s.index, j.family, got, want[c])
		case v.canonical[c] == nil:
			v.canonical[c] = got
			v.makespan += s.res.makespanSum()
		}
	}
	for c, got := range v.canonical {
		if got == nil {
			v.fail("census job %d (%s) has no correct answer", c, w.jobs[c].family)
		}
	}
	return v
}

// golden holds, for the full-size workloads at -seed 1, what a run must
// reproduce exactly: the digest of the census answers, the summed
// makespan, and the simulated counts of the traced pass.
type golden struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string]goldenEntry `json:"workloads"`
}

type goldenEntry struct {
	Digest   string           `json:"histograms_sha256"`
	Makespan int64            `json:"sim_makespan_cycles"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

func readGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// writeGolden records the envelope's exact results as the new golden file.
func writeGolden(path string, seed int64, env *envelope) error {
	g := golden{Seed: seed, Workloads: map[string]goldenEntry{}}
	for _, w := range env.Workloads {
		e := goldenEntry{
			Digest:   w.Digest,
			Makespan: int64(w.EndToEnd["sim_makespan_cycles"].Value),
			Counts:   map[string]int64{},
		}
		for _, name := range countNames {
			e.Counts[name] = int64(w.PerLayer[name].Value)
		}
		g.Workloads[w.Name] = e
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
