package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forceGoRuns sends every run to its Go loop and returns a restore
// function.
func forceGoRuns() func() {
	old := useAVX2
	useAVX2 = false
	return func() { useAVX2 = old }
}

// TestKernelOracleGoRuns reruns the kernel oracle on the Go loops alone,
// the path every CPU without AVX2 takes.
func TestKernelOracleGoRuns(t *testing.T) {
	defer forceGoRuns()()
	for _, n := range []int{2, 5, 8, 10} {
		for seed := int64(1); seed <= 4; seed++ {
			runRandomCircuit(t, n, 100, seed+200)
		}
	}
}

// TestActiveSpaceOracleGoRuns reruns the active-space oracle on the Go
// loops alone.
func TestActiveSpaceOracleGoRuns(t *testing.T) {
	defer forceGoRuns()()
	for _, n := range []int{2, 5, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			runActiveOracle(t, n, randomProgram(seed+200, 120), seed)
		}
	}
}

// TestEPRMatchesHThenCNOT prepares a pair on every ordered position pair
// of five qubits, the other three each active, classical 0 or classical 1,
// and holds State.EPR to the Ref kernels' H then CNOT with ==, on both run
// paths. A pair that is not classical at 0 takes EPR's H-then-CNOT branch.
func TestEPRMatchesHThenCNOT(t *testing.T) {
	const n = 5
	for _, goRuns := range []bool{false, true} {
		if goRuns {
			defer forceGoRuns()()
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				for mix := 0; mix < 27*4; mix++ {
					s, ref := NewState(n), NewState(n)
					prev, code := -1, mix
					for q := 0; q < n; q++ {
						if q == a || q == b {
							continue
						}
						switch code % 3 {
						case 1:
							gateOp(9, q, q, 0.4+0.3*float64(q))(s, ref, nil, nil) // RY: active
							if prev >= 0 {
								gateOp(12, prev, q, 0)(s, ref, nil, nil) // CNOT: entangled
							}
							prev = q
						case 2:
							gateOp(1, q, q, 0)(s, ref, nil, nil) // X: classical 1
						}
						code /= 3
					}
					// code is now 0..3: the pair's own starting values.
					if code&1 != 0 {
						gateOp(1, a, a, 0)(s, ref, nil, nil)
					}
					if code&2 != 0 {
						gateOp(9, b, b, 1.1)(s, ref, nil, nil)
					}
					gateOp(16, a, b, 0)(s, ref, nil, nil) // EPR against H then CNOT
					ctx := fmt.Sprintf("go runs %v, EPR(%d, %d), mix %d", goRuns, a, b, mix)
					sameAmps(t, s, ref, ctx)
					for q := 0; q < n; q++ {
						if got, want := s.Prob(q), RefProb(ref, q); got != want {
							t.Fatalf("%s: Prob(%d) = %v, ref %v", ctx, q, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzKernelRuns holds each assembly run to its Go loop bit for bit
// (math.Float64bits, so signed zeros and infinities count) over random
// lengths and offsets, and over the aliasing the kernels use: scaleRun in
// place and with its destination below its source, as collapse compacts,
// and splitRun writing its first half over its source, as insertApply1 and
// EPR do at the bottom of the array.
func FuzzKernelRuns(f *testing.F) {
	if !haveAVX2() {
		f.Skip("no AVX2: the runs are the Go loops")
	}
	f.Add(int64(1), uint16(1), uint8(0), uint8(0), 0.7071067811865476, -0.25)
	f.Add(int64(2), uint16(2), uint8(1), uint8(1), 1.0, -1.0)
	f.Add(int64(3), uint16(7), uint8(3), uint8(5), 0.5, 2.0)
	f.Add(int64(4), uint16(64), uint8(0), uint8(64), -0.3, 1e-300)
	f.Add(int64(5), uint16(13), uint8(2), uint8(1), math.Inf(1), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, off, gap uint8, r0, r1 float64) {
		if math.IsNaN(r0) || math.IsNaN(r1) {
			t.Skip("a NaN operand's payload may come from either side of a multiply")
		}
		length, o, g := int(n%300), int(off%8), int(gap)
		rng := rand.New(rand.NewSource(seed))
		buf := make([]complex128, o+3*(length+g)+8)
		for i := range buf {
			switch rng.Intn(8) {
			case 0: // exact zeros of both signs, as insert and collapse leave
				buf[i] = complex(math.Copysign(0, rng.Float64()-0.5), 0)
			case 1:
				buf[i] = complex(rng.NormFloat64()*1e-310, rng.NormFloat64())
			default:
				buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		// Three runs of the length, g apart, after o leading amplitudes.
		p0 := func(b []complex128) []complex128 { return b[o : o+length] }
		p1 := func(b []complex128) []complex128 { return b[o+length+g : o+2*length+g] }
		p2 := func(b []complex128) []complex128 { return b[o+2*(length+g) : o+3*length+2*g] }
		// below is a source g places above its destination, overlapping it
		// when g < length.
		below := func(b []complex128) []complex128 { return b[o+g : o+g+length] }
		runs := []struct {
			name     string
			asm, ref func(b []complex128)
		}{
			{"mix",
				func(b []complex128) { mixRunAVX2(p0(b), p1(b), r0, r1, r1, -r0) },
				func(b []complex128) { mixRun(p0(b), p1(b), r0, r1, r1, -r0) }},
			{"scale/in-place",
				func(b []complex128) { scaleRunAVX2(p0(b), p0(b), r0) },
				func(b []complex128) { scaleRun(p0(b), p0(b), r0) }},
			{"scale/disjoint",
				func(b []complex128) { scaleRunAVX2(p0(b), p1(b), r1) },
				func(b []complex128) { scaleRun(p0(b), p1(b), r1) }},
			{"scale/down",
				func(b []complex128) { scaleRunAVX2(p0(b), below(b), r0) },
				func(b []complex128) { scaleRun(p0(b), below(b), r0) }},
			{"split/in-place",
				func(b []complex128) { splitRunAVX2(p0(b), p1(b), p0(b), r0, r1) },
				func(b []complex128) { splitRun(p0(b), p1(b), p0(b), r0, r1) }},
			{"split/disjoint",
				func(b []complex128) { splitRunAVX2(p1(b), p2(b), p0(b), r0, r1) },
				func(b []complex128) { splitRun(p1(b), p2(b), p0(b), r0, r1) }},
			{"swap",
				func(b []complex128) { swapRunAVX2(p0(b), p1(b)) },
				func(b []complex128) { swapRun(p0(b), p1(b)) }},
		}
		for _, r := range runs {
			got, want := append([]complex128(nil), buf...), append([]complex128(nil), buf...)
			r.asm(got)
			r.ref(want)
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s, length %d, offset %d, gap %d: element %d is %v, Go loop %v", r.name, length, o, g, i, got[i], want[i])
				}
			}
		}
	})
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}
