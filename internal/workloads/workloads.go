// Package workloads generates the benchmark circuits of the paper's
// evaluation (§6.4.2): the near-term circuits converted from static
// QASMBench-style programs to dynamic circuits with long-range CNOTs
// (adder, bv, qft, w_state) and the logical-T lattice-surgery QEC circuits.
// All circuits are built from scratch; the dynamic conversion reuses the
// Fig. 14 constructions in internal/circuit.
package workloads

import (
	"fmt"
	"math"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
)

// GHZ prepares an n-qubit GHZ state and measures every qubit.
func GHZ(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	for q := 0; q < n-1; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// QFT builds the quantum Fourier transform on n qubits: H plus controlled
// phases with geometrically decreasing angles. The final qubit-reversal
// swaps are omitted (the standard benchmark convention); measurements close
// the circuit.
func QFT(n int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < n; i++ {
		c.H(i)
		for j := i + 1; j < n; j++ {
			// Ldexp, not a shifted divisor: 1<<(j-i) is negative at 63 and 0
			// from 64 up, and qft_n200's angles reach π/2¹⁹⁹ (still finite).
			c.CPhaseGate(j, i, math.Ldexp(math.Pi, -(j-i)))
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// BV builds a Bernstein–Vazirani circuit over n qubits (n-1 data + 1
// ancilla) with the given secret string (bit i of secret = coefficient of
// data qubit i; only the low n-1 bits are used).
func BV(n int, secret func(i int) bool) *circuit.Circuit {
	if n < 2 {
		panic("workloads: BV needs >= 2 qubits")
	}
	c := circuit.New(n)
	anc := n - 1
	c.X(anc)
	c.H(anc)
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	for q := 0; q < n-1; q++ {
		if secret(q) {
			c.CNOT(q, anc)
		}
	}
	for q := 0; q < n-1; q++ {
		c.H(q)
		c.MeasureInto(q, q)
	}
	return c
}

// AlternatingSecret is the deterministic secret used by the benchmark suite.
func AlternatingSecret(i int) bool { return i%2 == 0 }

// VQEAnsatz builds a hardware-efficient variational ansatz skeleton:
// `layers` rounds of per-qubit symbolic RY rotations followed by a
// nearest-neighbor CNOT entangler chain, closed by measurements. Every
// rotation angle is a free parameter named t<layer>_<qubit>; bind them
// with Circuit.Bind (or submit with a params/sweep field) before running.
// This is the angle-sweep workload the parameter-binding layer exists for:
// a VQE outer loop re-runs the same skeleton at thousands of parameter
// points, so the circuit compiles once and each point is a table patch.
func VQEAnsatz(n, layers int) *circuit.Circuit {
	if n < 2 {
		panic("workloads: VQEAnsatz needs >= 2 qubits")
	}
	if layers < 1 {
		layers = 1
	}
	c := circuit.New(n)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RYSym(q, fmt.Sprintf("t%d_%d", l, q))
		}
		for q := 0; q < n-1; q++ {
			c.CNOT(q, q+1)
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// VQEAnsatzPoint returns a deterministic full binding for a VQEAnsatz
// skeleton: point k of a sweep, with angles spread over (0, 2π) by a
// golden-ratio stride so no two points coincide.
func VQEAnsatzPoint(n, layers, k int) map[string]float64 {
	out := make(map[string]float64, n*layers)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			x := float64(k)*0.6180339887498949 + float64(l*n+q)/float64(n*layers)
			out[fmt.Sprintf("t%d_%d", l, q)] = 2 * math.Pi * (x - math.Floor(x))
		}
	}
	return out
}

// DistributedVQE builds the multi-chip variational workload: the
// hardware-efficient ansatz of VQEAnsatz — per-qubit symbolic RY layers
// (angles t<layer>_<qubit>) between entanglers — but with an entangler
// deliberately split across device halves: the nearest-neighbor chain
// plus a rung of CNOT(q, q+n/2) pairs. On a single chip the rungs are
// ordinary long-range gates; under -chips 2 with the contiguous
// partition every rung is a cut gate, while the interaction partitioner
// can trade chain edges for rungs — which is exactly the spread the
// remote-gate experiment sweeps. All angles stay symbolic, so remote-gate
// sweeps flow through the parameter-binding path: one multi-chip skeleton
// compiles once and every point is a table patch.
func DistributedVQE(n, layers int) *circuit.Circuit {
	if n < 4 {
		panic("workloads: DistributedVQE needs >= 4 qubits")
	}
	if layers < 1 {
		layers = 1
	}
	c := circuit.New(n)
	half := n / 2
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RYSym(q, fmt.Sprintf("t%d_%d", l, q))
		}
		for q := 0; q < n-1; q++ {
			c.CNOT(q, q+1)
		}
		for q := 0; q < half; q++ {
			c.CNOT(q, q+half)
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// DistributedVQEPoint returns a deterministic full binding for a
// DistributedVQE skeleton, point k of a sweep (same golden-ratio spread
// as VQEAnsatzPoint — the two ansatz share a parameter naming scheme).
func DistributedVQEPoint(n, layers, k int) map[string]float64 {
	return VQEAnsatzPoint(n, layers, k)
}

// QFTSweep builds a parameterized QFT workload: a layer of symbolic RZ
// phase preparations (phi0..phi<n-1>) followed by the full QFT and
// measurements — the "estimate the spectrum at many phase settings" sweep.
// The QFT's own controlled-phase angles stay concrete; only the
// preparation layer is bindable.
func QFTSweep(n int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.H(q)
		c.RZSym(q, fmt.Sprintf("phi%d", q))
	}
	c.Append(QFT(n))
	return c
}

// QFTSweepPoint returns a deterministic full binding for a QFTSweep
// skeleton (point k).
func QFTSweepPoint(n, k int) map[string]float64 {
	out := make(map[string]float64, n)
	for q := 0; q < n; q++ {
		x := float64(k)*0.6180339887498949 + float64(q)/float64(n)
		out[fmt.Sprintf("phi%d", q)] = 2 * math.Pi * (x - math.Floor(x))
	}
	return out
}

// CCX appends a Toffoli decomposed into the standard 7-T construction
// (2 H, 6 CNOT, 7 T/T†) — the form control hardware executes.
func CCX(c *circuit.Circuit, a, b, t int) {
	c.H(t)
	c.CNOT(b, t)
	c.Tdg(t)
	c.CNOT(a, t)
	c.T(t)
	c.CNOT(b, t)
	c.Tdg(t)
	c.CNOT(a, t)
	c.T(b)
	c.T(t)
	c.H(t)
	c.CNOT(a, b)
	c.T(a)
	c.Tdg(b)
	c.CNOT(a, b)
}

// CuccaroAdder builds the CDKM ripple-carry adder computing b := a + b over
// k-bit registers, with aVal/bVal loaded by X gates. Qubit layout follows
// the Cuccaro paper's line ordering — c, b0, a0, b1, a1, ..., z — so every
// MAJ/UMA acts on a window of three adjacent qubits (distance ≤ 2), keeping
// the dynamic conversion shallow. Total qubits: 2k + 2.
func CuccaroAdder(k int, aVal, bVal uint64) *circuit.Circuit {
	n := 2*k + 2
	c := circuit.New(n)
	aq := func(i int) int { return 2*i + 2 } // a_i
	bq := func(i int) int { return 2*i + 1 } // b_i
	carry := 0
	z := n - 1
	for i := 0; i < k; i++ {
		if aVal>>uint(i)&1 == 1 {
			c.X(aq(i))
		}
		if bVal>>uint(i)&1 == 1 {
			c.X(bq(i))
		}
	}
	maj := func(x, y, zq int) { // MAJ(c_in, b, a)
		c.CNOT(zq, y)
		c.CNOT(zq, x)
		CCX(c, x, y, zq)
	}
	uma := func(x, y, zq int) {
		CCX(c, x, y, zq)
		c.CNOT(zq, x)
		c.CNOT(x, y)
	}
	maj(carry, bq(0), aq(0))
	for i := 1; i < k; i++ {
		maj(aq(i-1), bq(i), aq(i))
	}
	c.CNOT(aq(k-1), z)
	for i := k - 1; i >= 1; i-- {
		uma(aq(i-1), bq(i), aq(i))
	}
	uma(carry, bq(0), aq(0))
	// Read out the sum: b register plus the carry-out z.
	for i := 0; i < k; i++ {
		c.MeasureInto(bq(i), i)
	}
	c.MeasureInto(z, k)
	return c
}

// WState prepares the n-qubit W state with the linear chain of controlled
// rotations (decomposed to RY/CNOT) and measures every qubit.
func WState(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.X(0)
	for i := 0; i < n-1; i++ {
		theta := 2 * math.Acos(1/math.Sqrt(float64(n-i)))
		cry(c, i, i+1, theta)
		c.CNOT(i+1, i)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// cry appends a controlled-RY(theta) from ctrl to tgt via the standard
// two-CNOT decomposition.
func cry(c *circuit.Circuit, ctrl, tgt int, theta float64) {
	c.RYGate(tgt, theta/2)
	c.CNOT(ctrl, tgt)
	c.RYGate(tgt, -theta/2)
	c.CNOT(ctrl, tgt)
}

// WStateTree prepares the n-qubit W state with the log-depth divide-and-
// conquer construction: the single excitation is recursively split between
// block halves with a controlled rotation plus a CNOT at half-block
// distance. The long-range gates make it a natural dynamic-circuit workload
// (the chain construction WState has only nearest-neighbor gates).
func WStateTree(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.X(0)
	var split func(lo, size int)
	split = func(lo, size int) {
		if size <= 1 {
			return
		}
		left := (size + 1) / 2
		right := size - left
		// Move the excitation to the right half with amplitude right/size.
		theta := 2 * math.Acos(math.Sqrt(float64(left)/float64(size)))
		mid := lo + left
		cry(c, lo, mid, theta)
		c.CNOT(mid, lo)
		split(lo, left)
		split(mid, right)
	}
	split(0, n)
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

// Dynamic converts a logical circuit to a dynamic physical circuit on a
// dual-rail (data row + ancilla row) device, replacing every non-adjacent
// two-qubit gate with the Fig. 14 long-range construction.
func Dynamic(logical *circuit.Circuit) (*circuit.Circuit, error) {
	return circuit.DualRailEmbedding{}.Embed(logical)
}

// Benchmark is one named entry of the Figure 15 suite, together with the
// controller-mesh shape and qubit→controller mapping that keep its two-qubit
// gates nearest-neighbor on the fabric.
type Benchmark struct {
	Name    string
	Qubits  int // physical qubit count (the _nX in the name)
	Logical int // logical qubits before dynamic conversion
	Circuit *circuit.Circuit
	MeshW   int
	MeshH   int
	Mapping []int // qubit -> controller; nil means identity
	// DefaultParams is a full binding for parameterized benchmarks
	// (sweep point 0), applied by the CLI and the serve daemon when the
	// caller supplies no params of their own. Nil for concrete circuits.
	DefaultParams map[string]float64
}

// fig15Spec describes how each paper benchmark maps onto our generators.
// Line-style benchmarks use the dual-rail embedding: half the physical
// qubits are the logical chain, half the dedicated ancilla rail.
type fig15Spec struct {
	name   string
	qubits int
	build  func(logical int) *circuit.Circuit
}

func fig15Specs() []fig15Spec {
	adder := func(l int) *circuit.Circuit {
		k := (l - 2) / 2
		if k < 1 {
			k = 1
		}
		return CuccaroAdder(k, 0xB5A3%(1<<uint(min(k, 60))), 0x6CD1%(1<<uint(min(k, 60))))
	}
	bv := func(l int) *circuit.Circuit { return BV(l, AlternatingSecret) }
	qft := func(l int) *circuit.Circuit { return QFT(l) }
	ws := func(l int) *circuit.Circuit { return WState(l) }
	return []fig15Spec{
		{"adder_n577", 577, adder},
		{"adder_n1153", 1153, adder},
		{"bv_n400", 400, bv},
		{"bv_n1000", 1000, bv},
		{"logical_t_n432", 432, nil}, // handled by LogicalT
		{"logical_t_n864", 864, nil},
		{"qft_n30", 30, qft},
		{"qft_n100", 100, qft},
		{"qft_n200", 200, qft},
		{"qft_n300", 300, qft},
		{"w_state_n800", 800, ws},
		{"w_state_n1000", 1000, ws},
	}
}

// Fig15Names lists the benchmark names in the paper's order.
func Fig15Names() []string {
	specs := fig15Specs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// Build constructs one Figure 15 benchmark by name. The physical qubit count
// matches the name; logical circuits are line-embedded with the listed
// spacing (intermediate qubits act as ancillas for dynamic long-range
// gates), padding any remainder with idle qubits.
func Build(name string) (Benchmark, error) {
	return buildSized(name, 1)
}

// BuildScaled builds a reduced-size variant of a named benchmark for tests:
// the physical size is divided by div (minimum 8 qubits), preserving
// structure.
func BuildScaled(name string, div int) (Benchmark, error) {
	return buildSized(name, div)
}

func buildSized(name string, div int) (Benchmark, error) {
	if name == "dvqe" {
		// Distributed-VQE is not a Fig. 15 benchmark; it exists for the
		// multi-chip remote-gate experiments. 16 qubits, 2 layers at
		// full size; scaled variants shrink the register but keep it
		// even so the cross-half rungs stay well defined.
		q := 16 / div
		if q < 4 {
			q = 4
		}
		q -= q % 2
		c := DistributedVQE(q, 2)
		w, h := network.NearSquareMesh(q)
		return Benchmark{
			Name: name, Qubits: q, Logical: q, Circuit: c, MeshW: w, MeshH: h,
			DefaultParams: DistributedVQEPoint(q, 2, 0),
		}, nil
	}
	for _, s := range fig15Specs() {
		if s.name != name {
			continue
		}
		q := s.qubits / div
		if q < 8 {
			q = 8
		}
		if s.build == nil { // logical_t family: 2-D patch grid, identity map
			cfg := DefaultLogicalTConfig(q)
			c := LogicalT(cfg)
			w := cfg.GridW()
			h := (q + w - 1) / w
			return Benchmark{
				Name: s.name, Qubits: q, Logical: q, Circuit: c,
				MeshW: w, MeshH: h,
			}, nil
		}
		logical := q / 2
		if logical < 4 {
			logical = 4
		}
		lc := s.build(logical)
		logical = lc.NumQubits // generators may round (adder needs 2k+2)
		pc, err := Dynamic(lc)
		if err != nil {
			return Benchmark{}, fmt.Errorf("workloads: %s: %w", name, err)
		}
		if q < pc.NumQubits {
			q = pc.NumQubits
		}
		pc.NumQubits = q // pad idle qubits to the advertised size
		// Dual-rail mesh: data rail on row 0, ancilla rail on row 1.
		w := (q + 1) / 2
		mapping := make([]int, q)
		for i := 0; i < q; i++ {
			if i < logical {
				mapping[i] = i // data qubit i -> row 0, column i
			} else if i < 2*logical {
				mapping[i] = w + (i - logical) // ancilla i -> row 1, column i
			} else {
				mapping[i] = i // padding qubits: anywhere injective
			}
		}
		// Padding indices may collide with rail slots; fix up injectively.
		used := make(map[int]bool, q)
		for i := 0; i < 2*logical && i < q; i++ {
			used[mapping[i]] = true
		}
		next := 0
		for i := 2 * logical; i < q; i++ {
			for used[next] {
				next++
			}
			mapping[i] = next
			used[next] = true
		}
		return Benchmark{
			Name: s.name, Qubits: q, Logical: logical, Circuit: pc,
			MeshW: w, MeshH: 2, Mapping: mapping,
		}, nil
	}
	return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}
