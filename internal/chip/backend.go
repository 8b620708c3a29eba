package chip

import (
	"math/rand"

	"dhisq/internal/circuit"
	"dhisq/internal/quantum"
	"dhisq/internal/stabilizer"
)

// CommAware is implemented by backends that can separate communication-qubit
// measurement randomness from the data stream. With a comm boundary set,
// measurements and resets of qubits at or above it draw from a dedicated
// herald RNG, so the data qubits of a multi-chip run consume exactly the
// same random draws as the merged single-chip run of the same circuit — the
// property the remote-gate distribution-equality oracle relies on.
type CommAware interface {
	// SetCommFrom marks qubits q.. as communication qubits (0 disables).
	SetCommFrom(q int)
}

// heraldSeedMix decorrelates the herald RNG stream from the data stream
// derived from the same shot seed.
const heraldSeedMix = 0x5851F42D4C957F2D

// simulated is what the two state-tracking backends share: the substrate
// their gates go to through circuit.Exec, and the split of measurement
// randomness into a data stream and a herald stream (CommAware).
type simulated struct {
	Rng   *rand.Rand
	comm  int
	hrng  *rand.Rand
	name  string
	sub   circuit.Substrate
	clear func() // returns the substrate to |0...0> in place
}

func newSimulated(name string, sub circuit.Substrate, clear func(), seed int64) simulated {
	return simulated{
		Rng:   rand.New(rand.NewSource(seed)),
		hrng:  rand.New(rand.NewSource(seed ^ heraldSeedMix)),
		name:  name,
		sub:   sub,
		clear: clear,
	}
}

// SetCommFrom implements CommAware.
func (b *simulated) SetCommFrom(q int) { b.comm = q }

// Stream implements circuit.Streams: the herald stream at and above the comm
// boundary, the data stream below it.
func (b *simulated) Stream(q int) *rand.Rand {
	if b.comm > 0 && q >= b.comm {
		return b.hrng
	}
	return b.Rng
}

func (b *simulated) exec(kind circuit.Kind, param float64, x, y int) int {
	out, ok := circuit.Exec(b.sub, b, kind, param, x, y)
	if !ok {
		panic("chip: " + b.name + " backend cannot apply " + kind.String())
	}
	return out
}

// Apply1 implements Backend.
func (b *simulated) Apply1(kind circuit.Kind, param float64, q int) { b.exec(kind, param, q, 0) }

// Apply2 implements Backend.
func (b *simulated) Apply2(kind circuit.Kind, param float64, x, y int) { b.exec(kind, param, x, y) }

// Measure implements Backend.
func (b *simulated) Measure(q int) int { return b.exec(circuit.Measure, 0, q, 0) }

// Reset implements Backend: |0...0> in place, the RNG streams reseeded in
// place (the same streams as fresh construction, without its allocations).
// The herald stream is reseeded only behind a comm boundary: without one
// Stream never hands it out, and seeding a math/rand source is a 607-word
// pass. SetCommFrom runs at machine construction, before any Reset.
func (b *simulated) Reset(seed int64) {
	b.clear()
	b.Rng.Seed(seed)
	if b.comm > 0 {
		b.hrng.Seed(seed ^ heraldSeedMix)
	}
}

// StateVecBackend applies gates to a dense state vector — the exact oracle
// for small verification runs.
type StateVecBackend struct {
	State *quantum.State
	simulated
}

// NewStateVec builds a dense backend for n qubits.
func NewStateVec(n int, seed int64) *StateVecBackend {
	s := quantum.NewState(n)
	return &StateVecBackend{s, newSimulated("statevec", circuit.Dense(s), s.Reset, seed)}
}

// StabilizerBackend applies Clifford gates to a tableau — exact semantics at
// thousands of qubits.
type StabilizerBackend struct {
	Tab *stabilizer.Tableau
	simulated
}

// NewStabilizer builds a tableau backend for n qubits.
func NewStabilizer(n int, seed int64) *StabilizerBackend {
	t := stabilizer.New(n)
	return &StabilizerBackend{t, newSimulated("stabilizer", circuit.Tableau(t), t.Reset, seed)}
}

// SeededBackend tracks no quantum state: gates are no-ops and each
// measurement outcome is a deterministic hash of (seed, qubit, repetition).
// Because outcomes do not depend on the order in which other qubits are
// measured, a BISP run and a lock-step baseline run of the same circuit take
// identical branches — the property Fig. 15's runtime comparison needs.
type SeededBackend struct {
	Seed  int64
	count map[int]uint64
}

// NewSeeded builds the order-independent outcome source.
func NewSeeded(seed int64) *SeededBackend {
	return &SeededBackend{Seed: seed, count: map[int]uint64{}}
}

// Apply1 implements Backend.
func (b *SeededBackend) Apply1(circuit.Kind, float64, int) {}

// Apply2 implements Backend.
func (b *SeededBackend) Apply2(circuit.Kind, float64, int, int) {}

// Reset implements Backend: repetition counters clear, seed replaced.
func (b *SeededBackend) Reset(seed int64) {
	b.Seed = seed
	clear(b.count)
}

// Measure implements Backend.
func (b *SeededBackend) Measure(q int) int {
	n := b.count[q]
	b.count[q] = n + 1
	// splitmix64 over (seed, qubit, repetition)
	x := uint64(b.Seed) ^ uint64(q)*0x9E3779B97F4A7C15 ^ n*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x & 1)
}
