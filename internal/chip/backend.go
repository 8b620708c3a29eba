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

// StateVecBackend applies gates to a dense state vector — the exact oracle
// for small verification runs.
type StateVecBackend struct {
	State *quantum.State
	Rng   *rand.Rand
	comm  int
	hrng  *rand.Rand
}

// NewStateVec builds a dense backend for n qubits.
func NewStateVec(n int, seed int64) *StateVecBackend {
	return &StateVecBackend{
		State: quantum.NewState(n),
		Rng:   rand.New(rand.NewSource(seed)),
		hrng:  rand.New(rand.NewSource(seed ^ heraldSeedMix)),
	}
}

// SetCommFrom implements CommAware.
func (b *StateVecBackend) SetCommFrom(q int) { b.comm = q }

func (b *StateVecBackend) rng(q int) *rand.Rand {
	if b.comm > 0 && q >= b.comm {
		return b.hrng
	}
	return b.Rng
}

// Apply1 implements Backend.
func (b *StateVecBackend) Apply1(kind circuit.Kind, param float64, q int) {
	s := b.State
	switch kind {
	case circuit.H:
		s.H(q)
	case circuit.X:
		s.X(q)
	case circuit.Y:
		s.Y(q)
	case circuit.Z:
		s.Z(q)
	case circuit.S:
		s.S(q)
	case circuit.Sdg:
		s.Sdg(q)
	case circuit.T:
		s.T(q)
	case circuit.Tdg:
		s.Tdg(q)
	case circuit.RX:
		s.RX(q, param)
	case circuit.RY:
		s.RY(q, param)
	case circuit.RZ:
		s.RZ(q, param)
	case circuit.Reset:
		if s.Measure(q, b.rng(q)) == 1 {
			s.X(q)
		}
	case circuit.Delay:
	default:
		panic("chip: statevec backend cannot apply " + kind.String())
	}
}

// Apply2 implements Backend.
func (b *StateVecBackend) Apply2(kind circuit.Kind, param float64, x, y int) {
	switch kind {
	case circuit.CNOT:
		b.State.CNOT(x, y)
	case circuit.CZ:
		b.State.CZ(x, y)
	case circuit.CPhase:
		b.State.CPhase(x, y, param)
	case circuit.SWAP:
		b.State.SWAP(x, y)
	default:
		panic("chip: statevec backend cannot apply " + kind.String())
	}
}

// Measure implements Backend.
func (b *StateVecBackend) Measure(q int) int { return b.State.Measure(q, b.rng(q)) }

// Reset implements Backend: |0...0> in place, the RNG streams reseeded in
// place (the same streams as fresh construction, without its allocations).
// The herald stream is reseeded only behind a comm boundary: without one
// rng never hands it out, and seeding a math/rand source is a 607-word
// pass. SetCommFrom runs at machine construction, before any Reset.
func (b *StateVecBackend) Reset(seed int64) {
	b.State.Reset()
	b.Rng.Seed(seed)
	if b.comm > 0 {
		b.hrng.Seed(seed ^ heraldSeedMix)
	}
}

// StabilizerBackend applies Clifford gates to a tableau — exact semantics at
// thousands of qubits.
type StabilizerBackend struct {
	Tab  *stabilizer.Tableau
	Rng  *rand.Rand
	comm int
	hrng *rand.Rand
}

// NewStabilizer builds a tableau backend for n qubits.
func NewStabilizer(n int, seed int64) *StabilizerBackend {
	return &StabilizerBackend{
		Tab:  stabilizer.New(n),
		Rng:  rand.New(rand.NewSource(seed)),
		hrng: rand.New(rand.NewSource(seed ^ heraldSeedMix)),
	}
}

// SetCommFrom implements CommAware.
func (b *StabilizerBackend) SetCommFrom(q int) { b.comm = q }

func (b *StabilizerBackend) rng(q int) *rand.Rand {
	if b.comm > 0 && q >= b.comm {
		return b.hrng
	}
	return b.Rng
}

// Apply1 implements Backend.
func (b *StabilizerBackend) Apply1(kind circuit.Kind, param float64, q int) {
	t := b.Tab
	switch kind {
	case circuit.H:
		t.H(q)
	case circuit.X:
		t.X(q)
	case circuit.Y:
		t.Y(q)
	case circuit.Z:
		t.Z(q)
	case circuit.S:
		t.S(q)
	case circuit.Sdg:
		t.Sdg(q)
	case circuit.Reset:
		if t.MeasureZ(q, b.rng(q)) == 1 {
			t.X(q)
		}
	case circuit.Delay:
	default:
		panic("chip: stabilizer backend cannot apply " + kind.String())
	}
}

// Apply2 implements Backend.
func (b *StabilizerBackend) Apply2(kind circuit.Kind, param float64, x, y int) {
	switch kind {
	case circuit.CNOT:
		b.Tab.CNOT(x, y)
	case circuit.CZ:
		b.Tab.CZ(x, y)
	case circuit.SWAP:
		b.Tab.SWAP(x, y)
	default:
		panic("chip: stabilizer backend cannot apply " + kind.String())
	}
}

// Measure implements Backend.
func (b *StabilizerBackend) Measure(q int) int { return b.Tab.MeasureZ(q, b.rng(q)) }

// Reset implements Backend: identity tableau in place, the RNG streams
// reseeded in place (the herald stream only behind a comm boundary, as on
// the dense backend).
func (b *StabilizerBackend) Reset(seed int64) {
	b.Tab.Reset()
	b.Rng.Seed(seed)
	if b.comm > 0 {
		b.hrng.Seed(seed ^ heraldSeedMix)
	}
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
