package sim

// Fifo is an in-place queue: pops advance a head index instead of
// reslicing, so the backing array drains back to [:0] and is reused —
// steady-state traffic allocates nothing after warm-up, and Reset keeps
// the capacity.
type Fifo[T any] struct {
	q    []T
	head int
}

func (f *Fifo[T]) Push(v T) { f.q = append(f.q, v) }
func (f *Fifo[T]) Len() int { return len(f.q) - f.head }
func (f *Fifo[T]) Reset()   { f.q, f.head = f.q[:0], 0 }

func (f *Fifo[T]) Pop() T {
	v := f.q[f.head]
	if f.head++; f.head == len(f.q) {
		f.Reset()
	}
	return v
}
