package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// envelope is benchmark/out/results.json: where and how the numbers were
// produced, then per workload what was measured.
type envelope struct {
	Meta      meta              `json:"meta"`
	Workloads []workloadResults `json:"workloads"`
}

type meta struct {
	Host        string   `json:"host"`
	CPU         string   `json:"cpu"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Go          string   `json:"go"`
	Commit      string   `json:"commit"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	DaemonFlags []string `json:"daemon_flags"`
	Start       string   `json:"start"`
}

// measured is one metric of one workload in the envelope.
type measured struct {
	Value     float64    `json:"value"`
	Unit      string     `json:"unit"`
	Better    string     `json:"better"`
	Bound     float64    `json:"bound,omitempty"`
	Samples   int        `json:"samples,omitempty"`
	Quartiles *quartiles `json:"quartiles,omitempty"`
}

type workloadResults struct {
	Name      string                      `json:"name"`
	Why       string                      `json:"why"`
	Clients   int                         `json:"clients"` // HTTP connections that carried the load
	Attempted int                         `json:"attempted"`
	Failed    int                         `json:"failed"`
	Failures  []string                    `json:"failures,omitempty"`
	Digest    string                      `json:"histograms_sha256"`
	EndToEnd  map[string]measured         `json:"end_to_end,omitempty"`
	Wire      map[string]measured         `json:"wire,omitempty"` // the untraced window's serve.* timings
	PerLayer  map[string]measured         `json:"per_layer,omitempty"`
	Rounds    []round                     `json:"rounds,omitempty"`
	Families  map[string]map[string]value `json:"families,omitempty"`
}

func newMeta(o options) meta {
	m := meta{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Seed: o.seed, Seconds: o.seconds,
		DaemonFlags: daemonFlags,
		Start:       time.Now().UTC().Format(time.RFC3339),
	}
	m.Host, _ = os.Hostname()
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// add folds one run's report into the envelope's entry for its workload.
func (e *envelope) add(rep *report) {
	var wr *workloadResults
	for i := range e.Workloads {
		if e.Workloads[i].Name == rep.Workload {
			wr = &e.Workloads[i]
		}
	}
	if wr == nil {
		e.Workloads = append(e.Workloads, workloadResults{
			Name: rep.Workload, Why: workloadWhy[rep.Workload], Clients: rep.Clients,
			EndToEnd: map[string]measured{}, Wire: map[string]measured{}, PerLayer: map[string]measured{},
		})
		wr = &e.Workloads[len(e.Workloads)-1]
	}
	wr.Attempted += rep.Attempted
	wr.Failed += rep.Failed
	wr.Failures = append(wr.Failures, rep.Failures...)
	if rep.Families != nil {
		wr.Families = rep.Families
	}
	wr.Digest = rep.Digest // the same census answers in either pass
	for name, v := range rep.Metrics {
		def := defs[name]
		m := measured{Value: v.Value, Unit: v.Unit, Better: def.Better, Bound: def.Bound}
		if !isEndToEnd(name) {
			wr.PerLayer[name] = m
			continue
		}
		m.Samples = rep.Samples
		if q, ok := rep.Spread[name]; ok {
			m.Quartiles = &q
		}
		wr.EndToEnd[name] = m
		wr.Rounds = rep.Rounds
	}
	for name, v := range rep.Wire {
		q := rep.Spread[name]
		wr.Wire[name] = measured{Value: v.Value, Unit: v.Unit, Better: defs[name].Better, Samples: rep.Samples, Quartiles: &q}
	}
}

func (e *envelope) write(path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readEnvelope(path string) (*envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}

// judge rates b against a by the metric's bound. worse is how far b is
// on the wrong side of a, as a share of a. A difference beyond the bound
// whose round quartiles still overlap is unresolved, not a verdict.
func judge(a, b measured) string {
	if a.Value == 0 {
		return "unresolved"
	}
	worse := (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		worse = -worse
	}
	if worse >= -a.Bound && worse <= a.Bound {
		return "same"
	}
	if qa, qb := a.Quartiles, b.Quartiles; qa != nil && qb != nil && qa[0] <= qb[2] && qb[0] <= qa[2] {
		return "unresolved"
	}
	if worse > 0 {
		return "worse"
	}
	return "better"
}

// compare prints, per workload and metric, both files' values, the ratio
// of the second to the first, and the verdict.
func compare(out io.Writer, pathA, pathB string) error {
	a, err := readEnvelope(pathA)
	if err != nil {
		return err
	}
	b, err := readEnvelope(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "a = %s (%s, %s)\nb = %s (%s, %s)\nratio = b/a\n", pathA, a.Meta.Commit, a.Meta.CPU, pathB, b.Meta.Commit, b.Meta.CPU)
	for _, wa := range a.Workloads {
		var wb *workloadResults
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "\n%s: only in a\n", wa.Name)
			continue
		}
		fmt.Fprintf(out, "\n%s (failed a %d/%d, b %d/%d)\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		row := func(defs []metricDef, ma, mb map[string]measured) {
			for _, def := range defs {
				va, okA := ma[def.Name]
				vb, okB := mb[def.Name]
				if !okA || !okB {
					continue
				}
				ratio := "n/a"
				if va.Value != 0 {
					ratio = fmt.Sprintf("%.3f", vb.Value/va.Value)
				}
				verdict := "-" // per-layer metrics have no bound to judge by
				if isEndToEnd(def.Name) {
					verdict = judge(va, vb)
				}
				fmt.Fprintf(out, "  %-32s %16.4f %16.4f %-8s x%-8s %s\n", def.Name, va.Value, vb.Value, def.Unit, ratio, verdict)
			}
		}
		row(endToEnd, wa.EndToEnd, wb.EndToEnd)
		fmt.Fprintln(out, "  untraced pass, whole window:")
		row(perLayer, wa.Wire, wb.Wire)
		fmt.Fprintln(out, "  traced pass:")
		row(perLayer, wa.PerLayer, wb.PerLayer)
	}
	return nil
}
