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
// herald RNG, so herald draws stay out of the data stream. That does not
// make a multi-chip shot's outcomes the merged single-chip shot's at the
// same seed: the data stream is drawn in commit order, and the teleported
// gates move when data qubits are measured, so a reordered measurement
// draws another number. The remote-gate oracle is therefore distributional
// on the quantum backends (runner's TestRemoteDistributionEquality), and
// exact shot for shot only under BackendSeeded, whose outcomes depend on no
// order.
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

// Apply implements Backend.
func (b *simulated) Apply(kind circuit.Kind, param float64, x, y int) int {
	out, ok := circuit.Exec(b.sub, b, kind, param, x, y)
	if !ok {
		panic("chip: " + b.name + " backend cannot apply " + kind.String())
	}
	return out
}

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
// measurement outcome is Outcome(seed, qubit, repetition). Because outcomes
// do not depend on the order in which other qubits are measured, a BISP run
// and a lock-step baseline run of the same circuit take identical branches —
// the property Fig. 15's runtime comparison needs.
type SeededBackend struct {
	Seed int64
	// count[q] is how many times qubit q has been measured since Reset:
	// indexed by qubit, grown on demand, cleared in place.
	count []uint64
}

// NewSeeded builds the order-independent outcome source.
func NewSeeded(seed int64) *SeededBackend {
	return &SeededBackend{Seed: seed}
}

// Reset implements Backend: repetition counters clear, seed replaced.
func (b *SeededBackend) Reset(seed int64) {
	b.Seed = seed
	clear(b.count)
}

// Apply implements Backend: a measurement of q returns its next outcome;
// every other kind, Reset and EPR included, is a no-op that draws nothing.
func (b *SeededBackend) Apply(kind circuit.Kind, _ float64, q, _ int) int {
	if kind != circuit.Measure {
		return 0
	}
	for len(b.count) <= q {
		b.count = append(b.count, 0)
	}
	r := b.count[q]
	b.count[q] = r + 1
	return Outcome(b.Seed, q, r)
}

// Outcome is the seeded backend's r-th measurement of qubit q (r counts
// from 0) in a shot with the given seed: splitmix64 over (seed, qubit,
// repetition). It is the one definition — SeededBackend.Apply and the
// machine's outcome map both call it.
func Outcome(seed int64, q int, r uint64) int {
	x := uint64(seed) ^ uint64(q)*0x9E3779B97F4A7C15 ^ r*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x & 1)
}
