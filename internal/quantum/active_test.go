package quantum

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The active-space oracle: programs with mid-circuit Measure and Project,
// reset-and-reuse ancillas and outcome-conditioned corrections run op by
// op through State and, on a state kept fully expanded, through the Ref
// kernels. After every op the expanded amplitudes must be equal (==), the
// outcomes and the number of RNG draws the same, and the amplitude array
// must cover no more qubits than were named since their last measurement.

// byteSource feeds a rand.Rand from a byte string, eight bytes a draw, so
// the fuzzer's input is the program randGate and the op mix below read.
// Past the end it keeps counting in golden-ratio steps, so that the op
// being drawn when the bytes ran out can still finish its rejection loops.
type byteSource struct {
	data []byte
	tail uint64
}

func (b *byteSource) Seed(int64) {}

func (b *byteSource) Int63() int64 {
	v := b.tail
	if len(b.data) >= 8 {
		v = binary.LittleEndian.Uint64(b.data)
		b.data = b.data[8:]
	} else {
		b.data = nil
		b.tail += 0x9E3779B97F4A7C15
	}
	return int64(v >> 1)
}

// countingSource counts the draws a measurement RNG serves.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// runActiveOracle interprets prog on n qubits until it runs out.
func runActiveOracle(t *testing.T, n int, prog []byte, seed int64) {
	t.Helper()
	src := &byteSource{data: prog}
	rng := rand.New(src)
	s, ref := NewState(n), NewState(n)
	sSrc := &countingSource{Source: rand.NewSource(seed)}
	refSrc := &countingSource{Source: rand.NewSource(seed)}
	sRng, refRng := rand.New(sSrc), rand.New(refSrc)
	touched := make([]bool, n)

	measure := func(q int) int {
		got, want := s.Measure(q, sRng), RefMeasure(ref, q, refRng)
		if got != want {
			t.Fatalf("Measure(%d) = %d, ref %d", q, got, want)
		}
		touched[q] = false
		return got
	}
	for k := 0; len(src.data) >= 8; k++ {
		q := rng.Intn(n)
		switch c := rng.Intn(12); {
		case c < 7:
			op, qs := randGate(rng, n)
			op(s, ref, nil, nil)
			for _, q := range qs {
				touched[q] = true
			}
		case c == 7:
			measure(q)
		case c == 8: // reset the ancilla for reuse
			if measure(q) == 1 {
				s.X(q)
				RefApply1(ref, q, 0, 1, 1, 0)
				touched[q] = true
			}
		case c == 9, c == 10: // X or Z correction conditioned on the outcome
			p := rng.Intn(n)
			if measure(q) == 1 {
				kind := 1 // X
				if c == 10 {
					kind = 3 // Z
				}
				gateOp(kind, p, p, 0)(s, ref, nil, nil)
				touched[p] = true
			}
		default:
			outcome := 0
			if RefProb(ref, q) > 0.5 {
				outcome = 1
			}
			s.Project(q, outcome)
			RefProject(ref, q, outcome)
			touched[q] = false
		}
		ctx := fmt.Sprintf("n=%d seed=%d op %d", n, seed, k)
		sameAmps(t, s, ref, ctx)
		if sSrc.draws != refSrc.draws {
			t.Fatalf("%s: %d RNG draws, ref %d", ctx, sSrc.draws, refSrc.draws)
		}
		named := 0
		for _, on := range touched {
			if on {
				named++
			}
		}
		if s.ActiveQubits() > named {
			t.Fatalf("%s: %d active qubits, only %d named since their last measurement", ctx, s.ActiveQubits(), named)
		}
	}
	for q := 0; q < n; q++ {
		if got, want := s.Prob(q), RefProb(ref, q); got != want {
			t.Fatalf("n=%d seed=%d: Prob(%d) = %v, ref %v", n, seed, q, got, want)
		}
	}
}

// randomProgram is seeded bytes for about ops operations.
func randomProgram(seed int64, ops int) []byte {
	prog := make([]byte, 8*6*ops) // an op reads six draws or so
	rand.New(rand.NewSource(seed)).Read(prog)
	return prog
}

func TestActiveSpaceOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 10} {
		for seed := int64(1); seed <= 6; seed++ {
			runActiveOracle(t, n, randomProgram(seed, 150), seed)
		}
	}
}

// TestActiveSpaceOracleParallelForced reruns the oracle with the goroutine
// fan-out forced on, so -race sweeps the kernels over a changing array.
func TestActiveSpaceOracleParallelForced(t *testing.T) {
	defer setParallel(1, 4)()
	for _, n := range []int{2, 5, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			runActiveOracle(t, n, randomProgram(seed+100, 120), seed)
		}
	}
}

func FuzzActiveSpace(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(uint8(seed*3), seed, randomProgram(seed, 40))
	}
	f.Fuzz(func(t *testing.T, n uint8, seed int64, prog []byte) {
		if len(prog) > 8*6*200 {
			prog = prog[:8*6*200]
		}
		runActiveOracle(t, 1+int(n)%10, prog, seed)
	})
}

// TestResetAndCloneKeepCapacity: a cleared or cloned state can still grow
// to all n qubits in place.
func TestResetAndCloneKeepCapacity(t *testing.T) {
	s := NewState(4)
	for q := 0; q < 4; q++ {
		s.H(q)
	}
	c := s.Clone()
	s.Reset()
	if s.ActiveQubits() != 0 || s.Amplitude(0) != 1 || !approx(s.Norm(), 1) {
		t.Fatalf("Reset left %d active qubits, amplitude %v", s.ActiveQubits(), s.Amplitude(0))
	}
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 4; q++ {
		c.Measure(q, rng)
		c.H(q)
		s.H(q)
	}
	if !approx(c.Norm(), 1) || !approx(s.Norm(), 1) || c.ActiveQubits() != 4 {
		t.Fatalf("norms %g %g, clone active %d", c.Norm(), s.Norm(), c.ActiveQubits())
	}
}
