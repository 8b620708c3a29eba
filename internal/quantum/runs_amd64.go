package quantum

// The AVX2 twins of the Go runs (runs_amd64.s), each over the shortest
// of its slices.

//go:noescape
func mixRunAVX2(p0, p1 []complex128, ar, br, cr, dr float64)

//go:noescape
func scaleRunAVX2(dst, src []complex128, r float64)

//go:noescape
func splitRunAVX2(p0, p1, src []complex128, r0, r1 float64)

//go:noescape
func swapRunAVX2(p0, p1 []complex128)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: CPUID leaf 1 for OSXSAVE and AVX, XCR0 for the XMM and YMM
// state, leaf 7 for AVX2.
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if maxLeaf < 7 || c1&(osxsave|avx) != osxsave|avx {
		return false // and XGETBV would fault without OSXSAVE
	}
	xcr0, _ := xgetbv()
	_, b7, _, _ := cpuid(7, 0)
	return xcr0&6 == 6 && b7&(1<<5) != 0
}
