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
	PriCleanup                 // end-of-cycle bookkeeping
)

// Event is the payload of a typed event: an opcode the handler switches
// on, the node it concerns, and three words of operands. It holds no
// pointer, so neither does a heap entry.
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

// closureHandler is the id of the engine's own handler: it runs the func
// At parked in fns[ev.A].
const closureHandler HandlerID = 0

// event is a heap entry by value, pointer-free: no per-event allocation,
// and the sifts copy it without write barriers. The (priority, insertion
// sequence) pair is packed into one key word — priority in the top byte,
// sequence below — so ordering is a two-field compare. 56 bits of sequence
// is ~7×10^16 events, far beyond any run (Reset rewinds the counter anyway).
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

// eventHeap is a hand-rolled binary min-heap over event values, ordered
// by (at, key). Keys are unique, so the pop order is the sorted order
// whatever the sequence of sifts that maintains it.
type eventHeap []event

// up sifts the entry at i toward the root.
func (s eventHeap) up(i int) {
	ev := s[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&ev, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// down places ev at the root and sifts it toward the leaves.
func (s eventHeap) down(ev event) {
	i, n := 0, len(s)
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && eventLess(&s[right], &s[least]) {
			least = right
		}
		if !eventLess(&s[least], &ev) {
			break
		}
		s[i] = s[least]
		i = least
	}
	s[i] = ev
}

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	nRun   uint64
	// running says the root of events is the event whose handler is
	// executing: Step leaves it in place so that the first event scheduled
	// from inside the handler replaces it with one sift, where a pop
	// followed by a push would pay two.
	running  bool
	handlers []Handler
	// fns parks the closures of At events (the heap entry carries the slot
	// index); free lists the vacant slots.
	fns  []func()
	free []int32
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine {
	e := &Engine{}
	e.Bind(closures{e})
	return e
}

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

// Reset restores the engine to its post-construction state: the event heap
// is drained, the clock rewinds to 0 and the sequence/processed counters
// clear. Bound handlers and the backing storage are retained, so a reset
// engine re-runs a workload without reallocating. It is the bottom of the
// machine-wide Reset path that makes multi-shot execution cheap.
func (e *Engine) Reset() {
	e.events = e.events[:0]
	e.running = false
	clear(e.fns)
	e.fns, e.free = e.fns[:0], e.free[:0]
	e.now = 0
	e.seq = 0
	e.nRun = 0
}

// Processed reports how many events have been executed.
func (e *Engine) Processed() uint64 { return e.nRun }

// Pending reports how many events are queued.
func (e *Engine) Pending() int {
	if e.running {
		return len(e.events) - 1
	}
	return len(e.events)
}

// Post schedules ev for handler h at absolute time t. Scheduling in the
// past is a programming error and panics: it would silently violate
// causality.
func (e *Engine) Post(t Time, pri Priority, h HandlerID, ev Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at t=%d before now=%d", t, e.now))
	}
	e.seq++
	ev.h = h
	entry := event{at: t, key: uint64(pri)<<seqBits | e.seq, Event: ev}
	if e.running {
		e.running = false
		e.events.down(entry)
		return
	}
	e.events = append(e.events, entry)
	e.events.up(len(e.events) - 1)
}

// At schedules fn at absolute time t: a Post to the engine's own handler,
// on the same heap and in the same order as every typed event. It
// allocates fn's closure; the per-shot paths use Post.
func (e *Engine) At(t Time, pri Priority, fn func()) {
	slot := len(e.fns)
	if n := len(e.free); n > 0 {
		slot = int(e.free[n-1])
	}
	e.Post(t, pri, closureHandler, Event{A: int64(slot)}) // panics on a past t, before fn is parked
	if slot < len(e.fns) {
		e.free = e.free[:len(e.free)-1]
		e.fns[slot] = fn
	} else {
		e.fns = append(e.fns, fn)
	}
}

// closures is the engine's handler for At events.
type closures struct{ e *Engine }

func (c closures) HandleEvent(ev Event) {
	e := c.e
	fn := e.fns[ev.A]
	e.fns[ev.A] = nil
	e.free = append(e.free, int32(ev.A))
	fn()
}

// After schedules fn delay cycles from now.
func (e *Engine) After(delay Time, pri Priority, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.At(e.now+delay, pri, fn)
}

// retire removes the root — the event that ran and scheduled nothing in
// its place.
func (e *Engine) retire() {
	e.running = false
	n := len(e.events) - 1
	last := e.events[n]
	e.events = e.events[:n]
	if n > 0 {
		e.events.down(last)
	}
}

// Step executes the single next event, returning false when none remain.
func (e *Engine) Step() bool {
	if e.running {
		e.retire() // Step from inside a handler: its event is done with
	}
	if len(e.events) == 0 {
		return false
	}
	ev := &e.events[0]
	e.now = ev.at
	e.nRun++
	e.running = true
	e.handlers[ev.h].HandleEvent(ev.Event)
	if e.running {
		e.retire()
	}
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
	if e.running {
		e.retire()
	}
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
