package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box's speed is not constant: the same daemon CPU time per
// job reads 15–20% apart a minute later, with the box otherwise idle. The
// probe measures that speed while the load runs, with work of the
// benchmark's own that no commit changes, and every timing metric is
// reported at the reference speed (see README.md, "Host speed").

// threadCPU is the CPU time the calling OS thread has run so far
// (CLOCK_THREAD_CPUTIME_ID): time the hypervisor or the scheduler kept the
// thread off a core is not in it.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeNominal is what one probeKernel costs in CPU time on the reference
// box in a quiet minute. It only fixes the scale of the reported numbers:
// a host speed of 1 is that box in that minute.
const probeNominal = 600 * time.Microsecond

// probeEvery is the sampling period: at 0.6 ms a sample the probe takes 3%
// of one core.
const probeEvery = 20 * time.Millisecond

var probeText = func() []byte {
	const alphabet = " \n;,()[]0123456789abcdefghijklmnopqrstuvwxyz."
	b := make([]byte, 32<<10)
	x := uint32(2463534242)
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = alphabet[x%uint32(len(alphabet))]
	}
	return b
}()

var probeSink uint64 // keeps the kernel's result alive

// probeKernel is a fixed piece of work shaped like the daemon's hottest
// loop, the QASM scanner: four branchy passes over 32 KB of text, integer
// only, resident in the first-level cache. Of the kernels tried (this one,
// an xorshift loop, complex multiply-adds over 64 KB, a pointer chase over
// 1 MB, small allocations into a map) it tracked every workload's
// round-to-round speed best, at a slope of about one; the memory-bound ones
// mostly measured what the daemon was doing on the other vCPU.
func probeKernel() {
	var tokens, digits uint64
	for pass := 0; pass < 4; pass++ {
		inToken := false
		for _, c := range probeText {
			switch {
			case c >= '0' && c <= '9':
				digits = digits*10 + uint64(c-'0')
				inToken = true
			case c >= 'a' && c <= 'z':
				digits ^= uint64(c) << (tokens & 31)
				inToken = true
			default:
				if inToken {
					tokens++
				}
				inToken = false
			}
		}
	}
	probeSink += tokens + digits
}

// hostProbe runs probeKernel every probeEvery on a thread of its own until
// stopped, and keeps what each run cost in CPU time.
type hostProbe struct {
	quit chan struct{}
	once sync.Once
	done chan struct{}
	at   []time.Time
	cpu  []float64 // ms
}

func startProbe() *hostProbe {
	p := &hostProbe{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				c0 := threadCPU()
				probeKernel()
				p.at = append(p.at, now)
				p.cpu = append(p.cpu, ms(threadCPU()-c0))
			case <-p.quit:
				return
			}
		}
	}()
	return p
}

// stop ends the sampling; the log may be read once it has returned.
func (p *hostProbe) stop() {
	p.once.Do(func() { close(p.quit) })
	<-p.done
}

// speed is the host's speed over (from, to] relative to the reference: the
// nominal cost of the kernel over the median cost sampled in the interval.
// An interval too short to hold a sample takes the whole log's median.
func (p *hostProbe) speed(from, to time.Time) float64 {
	var in []float64
	for i, at := range p.at {
		if at.After(from) && !at.After(to) {
			in = append(in, p.cpu[i])
		}
	}
	if len(in) == 0 {
		in = p.cpu
	}
	if len(in) == 0 {
		return 1
	}
	return ms(probeNominal) / quantileOf(in, 0.5)
}
