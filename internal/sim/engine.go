// Package sim provides the deterministic discrete-event simulation kernel that
// drives every component of the Distributed-HISQ model: controllers, routers,
// links, and the quantum chip model all schedule work on a single Engine.
//
// The kernel is transaction-level in the sense of the paper's CACTUS-Light
// simulator (§6.4.1): components advance in units of controller clock cycles
// (4 ns at the 250 MHz TCU clock) and interact through timestamped events.
// Determinism is guaranteed by a total order on events: (time, priority,
// insertion sequence).
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is an absolute simulation time in TCU clock cycles (4 ns each).
type Time = int64

// CyclesPerSecond is the TCU clock rate from §6.1 (250 MHz, 4 ns grid).
const CyclesPerSecond = 250_000_000

// NsPerCycle is the duration of one cycle in nanoseconds.
const NsPerCycle = 4

// Nanoseconds converts a cycle count to nanoseconds.
func Nanoseconds(t Time) int64 { return int64(t) * NsPerCycle }

// Cycles converts a duration in nanoseconds to cycles, rounding up to the
// 4 ns grid (the hardware cannot act between grid points).
func Cycles(ns int64) Time {
	if ns <= 0 {
		return 0
	}
	return Time((ns + NsPerCycle - 1) / NsPerCycle)
}

// Priority orders events that share a timestamp. Lower runs first. Deliveries
// run before process resumptions so that a controller unblocked by a message
// observes it in the same cycle.
type Priority int

const (
	PriDeliver Priority = iota // link/router deliveries
	PriResume                  // process resumptions
)

// Event is the payload of a typed event: an opcode the handler switches
// on, the node it concerns, and three words of operands. It holds no
// pointer, so neither does a queue entry.
type Event struct {
	Op      uint8
	h       HandlerID // set by Post; sits in Op's padding
	Node    int32
	A, B, C int64
}

// Handler receives the typed events posted to the id Bind gave it.
type Handler interface {
	HandleEvent(ev Event)
}

// HandlerID names a bound Handler.
type HandlerID uint16

// event is a queue entry by value, pointer-free: no per-event allocation,
// and moving it needs no write barrier. The (priority, insertion sequence)
// pair is packed into one key word — priority in the top byte, sequence
// below — so ordering is a two-field compare. 56 bits of sequence is
// ~7×10^16 events, far beyond any run (Reset rewinds the counter anyway).
type event struct {
	at  Time
	key uint64 // Priority<<seqBits | seq
	Event
}

const seqBits = 56

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// ringSize is the calendar's horizon in cycles: an event due fewer than
// ringSize cycles from now waits in the ring bucket of its cycle, anything
// later in the overflow heap.
const (
	ringSize  = 1024
	ringMask  = ringSize - 1
	ringWords = ringSize / 64
)

// slot is a ring entry; next links the entries of one bucket in key order.
type slot struct {
	event
	next int32
}

// eventHeap is a binary min-heap over event values, ordered by (at, key):
// the calendar's overflow.
type eventHeap []event

func (s *eventHeap) push(ev event) {
	*s = append(*s, ev)
	h, i := *s, len(*s)-1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (s *eventHeap) pop() event {
	h := *s
	root, n := h[0], len(h)-1
	ev := h[n]
	*s, h = h[:n], h[:n]
	i := 0
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && eventLess(&h[right], &h[least]) {
			least = right
		}
		if !eventLess(&h[least], &ev) {
			break
		}
		h[i] = h[least]
		i = least
	}
	if n > 0 {
		h[i] = ev
	}
	return root
}

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; construct with NewEngine.
//
// Its queue is a calendar (DESIGN.md §2.5). Every ring entry is due in
// [now, now+ringSize), so bucket b holds the entries of the one cycle in
// that window congruent to b: a list through slots from first[b] to
// last[b] in key order, present while occupied has bit b set.
type Engine struct {
	now  Time
	seq  uint64
	nRun uint64

	slots       []slot
	vacant      []int32 // indices of unused slots
	first, last [ringSize]int32
	occupied    [ringWords]uint64
	overflow    eventHeap
	popped      event // the overflow root pop last took

	handlers []Handler
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Bind registers h and returns the id Post addresses it by. Handlers are
// bound once, at construction, and survive Reset.
func (e *Engine) Bind(h Handler) HandlerID {
	if len(e.handlers) > math.MaxUint16 {
		panic("sim: too many handlers")
	}
	e.handlers = append(e.handlers, h)
	return HandlerID(len(e.handlers) - 1)
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Reset restores the engine to its post-construction state: the queue is
// drained, the clock rewinds to 0 and the sequence/processed counters
// clear. Bound handlers and the backing storage are retained, so a reset
// engine re-runs a workload without reallocating. It is the bottom of the
// machine-wide Reset path that makes multi-shot execution cheap.
func (e *Engine) Reset() {
	e.slots, e.vacant = e.slots[:0], e.vacant[:0]
	e.occupied = [ringWords]uint64{}
	e.overflow = e.overflow[:0]
	e.now = 0
	e.seq = 0
	e.nRun = 0
}

// Processed reports how many events have been executed.
func (e *Engine) Processed() uint64 { return e.nRun }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.slots) - len(e.vacant) + len(e.overflow) }

// Post schedules ev for handler h at absolute time t. Scheduling in the
// past is a programming error and panics: it would silently violate
// causality.
func (e *Engine) Post(t Time, pri Priority, h HandlerID, ev Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at t=%d before now=%d", t, e.now))
	}
	e.seq++
	ev.h = h
	key := uint64(pri)<<seqBits | e.seq
	if t-e.now >= ringSize {
		e.overflow.push(event{at: t, key: key, Event: ev})
		return
	}
	i := int32(len(e.slots))
	if n := len(e.vacant); n > 0 {
		i, e.vacant = e.vacant[n-1], e.vacant[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[i]
	s.at, s.key, s.Event = t, key, ev
	b := int(t & ringMask)
	if bit := uint64(1) << (b & 63); e.occupied[b>>6]&bit == 0 {
		e.occupied[b>>6] |= bit
		e.first[b], e.last[b] = i, i
		return
	}
	if tail := e.last[b]; e.slots[tail].key < key {
		e.slots[tail].next = i // the common case: no lower priority queued behind
		e.last[b] = i
		return
	}
	p := &e.first[b]
	for e.slots[*p].key < key {
		p = &e.slots[*p].next
	}
	s.next, *p = *p, i
}

// head returns the bucket of the ring's earliest entry. The ring must not
// be empty. The scan starts at now's bucket and wraps.
func (e *Engine) head() int {
	b := int(e.now & ringMask)
	if m := e.occupied[b>>6] >> (b & 63); m != 0 {
		return b + bits.TrailingZeros64(m)
	}
	for w := b>>6 + 1; ; w++ {
		w &= ringWords - 1
		if m := e.occupied[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
}

// pop removes the least queued event, if there is one due by limit — the
// ring's head or the overflow's root, whichever is less — and returns it in
// place: the pointer is good until the next Post.
func (e *Engine) pop(limit Time) *event {
	b := -1
	if len(e.slots) > len(e.vacant) {
		b = e.head()
	}
	if len(e.overflow) > 0 && (b < 0 || eventLess(&e.overflow[0], &e.slots[e.first[b]].event)) {
		if e.overflow[0].at > limit {
			return nil
		}
		e.popped = e.overflow.pop()
		return &e.popped
	}
	if b < 0 {
		return nil
	}
	i := e.first[b]
	s := &e.slots[i]
	if s.at > limit {
		return nil
	}
	if i == e.last[b] {
		e.occupied[b>>6] &^= 1 << (b & 63)
	} else {
		e.first[b] = s.next
	}
	e.vacant = append(e.vacant, i)
	return &s.event
}

// Step executes the single next event, returning false when none remain.
func (e *Engine) Step() bool { return e.stepBy(math.MaxInt64) }

// stepBy executes the next event if it is due by limit. The event leaves
// the queue before its handler runs.
func (e *Engine) stepBy(limit Time) bool {
	ev := e.pop(limit)
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.nRun++
	e.handlers[ev.h].HandleEvent(ev.Event)
	return true
}

// Run executes events until the queue drains or limit events have run
// (limit <= 0 means unlimited). It returns the number executed in this call.
func (e *Engine) Run(limit uint64) uint64 {
	var n uint64
	for limit <= 0 || n < limit {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil executes events with timestamps <= deadline. Events beyond the
// deadline remain queued; the clock advances to deadline if it ran dry early.
func (e *Engine) RunUntil(deadline Time) {
	for e.stepBy(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}
