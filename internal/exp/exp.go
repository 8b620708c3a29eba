// Package exp implements the paper's evaluation and the sweeps grown on
// top of it. Every experiment has one shape: an Experiment in Registry
// whose Run returns a Report — the rows it measured, the gates it holds
// those rows to, and the text a terminal shows. The paper figures also
// keep their own entry points (see DESIGN.md §4 for the index), which the
// tests assert on and the root benchmarks time.
package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Args is what a run of dhisq-bench can vary; an experiment reads the
// fields that apply to it. It is recorded whole in Meta.Flags.
type Args struct {
	Seed  int64 `json:"seed"`
	Scale int   `json:"scale"` // divisor on Fig. 15 benchmark sizes
}

// Experiment is one -exp name.
type Experiment struct {
	Name string
	Run  func(Args) (*Report, error)
}

// Gate is one bound an experiment holds its rows to: Value Op Bound. A
// clause over many cells counts the cells that break it and gates the
// count at zero. Simulated-cycle gates are exact; wall-clock gates are
// ratios of two measurements taken in the same process.
type Gate struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Op    string  `json:"op"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
}

// NewGate evaluates value op bound.
func NewGate(name string, value float64, op string, bound float64) Gate {
	g := Gate{Name: name, Value: value, Op: op, Bound: bound}
	switch op {
	case ">=":
		g.Pass = value >= bound
	case "<=":
		g.Pass = value <= bound
	case "<":
		g.Pass = value < bound
	case "==":
		g.Pass = value == bound
	default:
		panic("exp: gate " + name + ": unknown op " + op)
	}
	return g
}

// Truth is a boolean as a gate value.
func Truth(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (g Gate) String() string {
	verdict := "ok"
	if !g.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("gate %-36s %.6g %s %g  %s", g.Name, g.Value, g.Op, g.Bound, verdict)
}

// Meta says where a report's numbers came from.
type Meta struct {
	Host   string `json:"host"`
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"` // HEAD of the working directory, "-dirty" with uncommitted changes
	Flags  Args   `json:"flags"`
}

// CollectMeta describes this process and the checkout it runs in.
func CollectMeta(flags Args) Meta {
	m := Meta{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown", Flags: flags}
	m.Host, _ = os.Hostname()
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// --exclude=* keeps tags out of it: always the full hash. A directory
	// that is not a git checkout has no commit to name.
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// Report is what every experiment returns and what BENCH_<exp>.json
// holds: the one envelope.
type Report struct {
	Exp   string `json:"exp"`
	Meta  Meta   `json:"meta"`
	Rows  any    `json:"rows"`
	Gates []Gate `json:"gates"`
	// Text is Rows for a terminal.
	Text string `json:"-"`
}

// Write stores the report as BENCH_<exp>.json under dir.
func (r *Report) Write(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+r.Exp+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Registry lists every experiment internal/exp owns, in -exp all order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", func(Args) (*Report, error) {
			res := Table1()
			return &Report{Rows: res, Gates: table1Gates(res.Rows), Text: renderRows(res.Rows, table1Cols)}, nil
		}},
		{"fig11", runFig11},
		{"fig13", func(Args) (*Report, error) {
			res, err := Fig13SyncWaveforms()
			return &Report{Rows: res, Gates: fig13Gates(res), Text: fig13Text(res)}, err
		}},
		{"fig14", func(a Args) (*Report, error) {
			res, err := Fig14LongRange([]int{2, 4, 8, 16, 32}, a.Seed)
			return &Report{Rows: res, Gates: fig14Gates(res.Points), Text: renderRows(res.Points, fig14Cols)}, err
		}},
		{"fig15", func(a Args) (*Report, error) {
			res, err := Fig15Runtime(Fig15Options{ScaleDiv: a.Scale, Seed: a.Seed})
			return &Report{Rows: res, Gates: fig15Gates(res), Text: fig15Text(res)}, err
		}},
		{"ablation", func(a Args) (*Report, error) {
			rows, err := AblationSyncAdvance(nil, a.Scale, a.Seed)
			return &Report{Rows: rows, Gates: ablationGates(rows), Text: renderRows(rows, ablationCols) +
				"booking-in-advance (Fig. 6) vs sync-immediately-before (QubiC style, §2.1.3)\n"}, err
		}},
		{"fig16", func(a Args) (*Report, error) {
			res, err := Fig16Fidelity(a.Seed)
			return &Report{Rows: res, Gates: fig16Gates(res), Text: fmt.Sprintf(
				"makespans: bisp=%d cy, lockstep=%d cy, %d qubits\n", res.BISPMakespan, res.LockstepMakespan, res.Qubits) +
				renderRows(res.Points, fig16Cols) + "paper: ~5x infidelity reduction across the T1 sweep\n"}, err
		}},
		{"fabric", func(a Args) (*Report, error) {
			rows, err := FabricSweep(a.Seed)
			return &Report{Rows: rows, Gates: fabricGates(rows), Text: renderRows(rows, fabricCols)}, err
		}},
		{"placement", func(a Args) (*Report, error) {
			rows, err := PlacementSweep(a.Seed)
			return &Report{Rows: rows, Gates: placementGates(rows), Text: renderRows(rows, placementCols)}, err
		}},
		{"feedback", func(a Args) (*Report, error) {
			rows, err := FeedbackSweep(a.Seed)
			return &Report{Rows: rows, Gates: feedbackGates(rows), Text: renderRows(rows, feedbackCols)}, err
		}},
		{"remote", func(a Args) (*Report, error) {
			rows, err := RemoteSweep(a.Seed)
			return &Report{Rows: rows, Gates: remoteGates(rows), Text: renderRows(rows, remoteCols)}, err
		}},
	}
}

// column is one column of a sweep's table: its header and how a row
// fills it.
type column[T any] struct {
	head string
	cell func(T) string
}

// renderRows formats a sweep as a fixed-width text table.
func renderRows[T any](rows []T, cols []column[T]) string {
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.head
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = make([]string, len(cols))
		for i, c := range cols {
			cells[r][i] = c.cell(row)
		}
	}
	return Table(header, cells)
}

// Table renders rows of labeled values as a fixed-width text table.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
