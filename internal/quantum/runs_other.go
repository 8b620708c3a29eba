//go:build !amd64

package quantum

// Without the assembly every run is its Go loop.

func haveAVX2() bool { return false }

var (
	mixRunAVX2   = mixRun
	scaleRunAVX2 = scaleRun
	splitRunAVX2 = splitRun
	swapRunAVX2  = swapRun
)
