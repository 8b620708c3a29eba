package quantum

// The element-wise inner loops of the real kernels, one contiguous run of
// amplitudes per call, each a Go loop that inlines into the kernel's block
// iteration and, on amd64 with AVX2, an assembly twin (runs_amd64.s) that
// writes the same bits (DESIGN.md §9). A kernel asks vectorRuns once,
// outside its block loop: a call inside the loop, taken or not, makes the
// compiler keep the loop's variables on the stack.

// useAVX2 is read from the CPU once; tests clear it to force the Go loops.
var useAVX2 = haveAVX2()

// vectorRuns reports whether runs of n amplitudes go to the assembly twins:
// a call costs about what the Go loop spends on two amplitudes.
func vectorRuns(n int) bool { return useAVX2 && n >= 4 }

// mixRun applies the real matrix {{ar, br}, {cr, dr}} to every pair
// (p0[i], p1[i]): H and RY on an active qubit.
func mixRun(p0, p1 []complex128, ar, br, cr, dr float64) {
	for i := range p0 {
		a0, a1 := p0[i], p1[i]
		p0[i] = complex(ar*real(a0)+br*real(a1), ar*imag(a0)+br*imag(a1))
		p1[i] = complex(cr*real(a0)+dr*real(a1), cr*imag(a0)+dr*imag(a1))
	}
}

// scaleRun writes src·r to dst. dst may be src itself or start below it
// (collapse compacts downwards); it must not start above an overlapping
// src.
func scaleRun(dst, src []complex128, r float64) {
	for i, a := range src {
		dst[i] = complex(real(a)*r, imag(a)*r)
	}
}

// splitRun writes src·r0 to p0 and src·r1 to p1: a classical qubit made
// active by a real matrix column (r0, r1). p0 may be src itself; p1 must
// not overlap src.
func splitRun(p0, p1, src []complex128, r0, r1 float64) {
	for i, x := range src {
		p1[i] = complex(r1*real(x), r1*imag(x))
		p0[i] = complex(r0*real(x), r0*imag(x))
	}
}

// swapNest is the loop nest of X, CNOT and SWAP: for every base from lo
// below hi in steps of stride, it exchanges amp[j:j+r] with
// amp[j+d:j+d+r] for j from base below base+span in steps of 2r.
func swapNest(amp []complex128, lo, hi, stride, span, r, d int) {
	if vectorRuns(r) {
		for base := lo; base < hi; base += stride {
			for j := base; j < base+span; j += 2 * r {
				swapRunAVX2(amp[j:j+r], amp[j+d:j+d+r])
			}
		}
		return
	}
	if r == 1 { // a run of one costs less without the slicing
		for base := lo; base < hi; base += stride {
			for j := base; j < base+span; j += 2 {
				amp[j], amp[j+d] = amp[j+d], amp[j]
			}
		}
		return
	}
	for base := lo; base < hi; base += stride {
		for j := base; j < base+span; j += 2 * r {
			swapRun(amp[j:j+r:j+r], amp[j+d:j+d+r:j+d+r])
		}
	}
}

// swapRun exchanges p0[i] and p1[i].
func swapRun(p0, p1 []complex128) {
	for i := range p0 {
		p0[i], p1[i] = p1[i], p0[i]
	}
}

// scaleNest is swapNest's loop nest for a real scaling in place: Z and CZ,
// whose -1 negates exactly.
func scaleNest(amp []complex128, lo, hi, stride, span, r int, f float64) {
	if vectorRuns(r) {
		for base := lo; base < hi; base += stride {
			for j := base; j < base+span; j += 2 * r {
				scaleRunAVX2(amp[j:j+r], amp[j:j+r], f)
			}
		}
		return
	}
	for base := lo; base < hi; base += stride {
		for j := base; j < base+span; j += 2 * r {
			seg := amp[j : j+r : j+r]
			scaleRun(seg, seg, f)
		}
	}
}
