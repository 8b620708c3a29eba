package sim

import (
	"math/rand"
	"testing"
)

// The order property. A script — bytes, from a seeded generator or the
// fuzzer — drives an engine through Post from outside and from inside
// handlers, Step, Run, RunUntil and Reset, and a plain slice shadows
// the queue. Every executed event must be the least pending one by (at,
// priority, insertion), which is what a stable sort by (at, priority) of
// the pending events would run next; its payload must be what was posted,
// on the handler it was posted to; and Pending/Processed must match a plain
// count at every step.

// reach holds the offsets a script posts and runs ahead by: mostly the next
// few cycles, where equal timestamps over all priorities are common, and
// now and then either side of the calendar's horizon, once or twice over —
// so scripts wrap the ring, park events in the overflow across RunUntil and
// Reset, and tie an overflow event with a ring event at one (at, priority).
var reach = [16]Time{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, ringSize - 1, ringSize, ringSize + 1, 2*ringSize + 1}

type shadowEvent struct {
	at   Time
	pri  Priority
	typ  int  // the handler it was posted to: 0, 1 or 2
	far  bool // posted ringSize or more cycles ahead: in the overflow
	done bool
}

// reached counts what a script exercised beyond the ring's first lap.
type reached struct {
	laps     Time // highest now / ringSize
	ties     int  // events run with an equal (at, priority) pending on the other side of the horizon
	heldOver int  // RunUntil and Reset calls that found an overflow event pending
}

type orderHarness struct {
	t       *testing.T
	eng     *Engine
	ids     [3]HandlerID
	script  []byte
	pos     int
	events  []shadowEvent // by id, in insertion order; cleared by Reset
	pending int
	ran     uint64
	budget  int // posts left
	reached
}

// next returns the next script byte, 0 once the script is exhausted.
func (h *orderHarness) next() int {
	if h.pos >= len(h.script) {
		return 0
	}
	h.pos++
	return int(h.script[h.pos-1])
}

type orderHandler struct {
	h   *orderHarness
	typ int
}

func (oh orderHandler) HandleEvent(ev Event) {
	h, id := oh.h, int(ev.A)
	if id < 0 || id >= len(h.events) {
		h.t.Fatalf("handler %d got an event with id %d, %d posted", oh.typ, id, len(h.events))
	}
	want := h.events[id]
	if want.typ != oh.typ || int(ev.Op) != id&0xff || int(ev.Node) != ^id || ev.B != int64(want.at) || ev.C != -int64(id) {
		h.t.Fatalf("event %d arrived on handler %d as %+v, posted %+v", id, oh.typ, ev, want)
	}
	h.exec(id)
}

// post schedules one event as script byte b says: reach[b%16] cycles from
// now, priority b/16%3, on handler b/48%3.
func (h *orderHarness) post(b int) {
	if h.budget == 0 {
		return
	}
	h.budget--
	id := len(h.events)
	delta, pri, typ := reach[b%16], b/16%3, b/48%3
	at := h.eng.Now() + delta
	h.events = append(h.events, shadowEvent{at: at, pri: Priority(pri), typ: typ, far: delta >= ringSize})
	h.pending++
	h.eng.Post(at, Priority(pri), h.ids[typ], Event{Op: uint8(id), Node: int32(^id), A: int64(id), B: int64(at), C: -int64(id)})
}

// exec is the body of every event: check it was the one due, then post
// zero, one or several more from inside the handler.
func (h *orderHarness) exec(id int) {
	me := h.events[id]
	if me.done {
		h.t.Fatalf("event %d ran twice", id)
	}
	if h.eng.Now() != me.at {
		h.t.Fatalf("event %d due at %d ran at %d", id, me.at, h.eng.Now())
	}
	for other, ev := range h.events {
		if ev.done || other == id {
			continue
		}
		// Insertion order is id order, so on a tie the lower id goes first.
		if ev.at < me.at || ev.at == me.at && (ev.pri < me.pri || ev.pri == me.pri && other < id) {
			h.t.Fatalf("event %d (at %d, pri %d) ran before event %d (at %d, pri %d)",
				id, me.at, me.pri, other, ev.at, ev.pri)
		}
		if ev.at == me.at && ev.pri == me.pri && ev.far != me.far {
			h.ties++
		}
	}
	h.laps = max(h.laps, me.at/ringSize)
	h.events[id].done = true
	h.pending--
	h.ran++
	h.counts("inside a handler, before it posts")
	for n := h.next() % 4; n > 0; n-- {
		h.post(h.next())
		h.counts("inside a handler")
	}
}

func (h *orderHarness) counts(when string) {
	if got := h.eng.Pending(); got != h.pending {
		h.t.Fatalf("%s: Pending() = %d, %d events are", when, got, h.pending)
	}
	if got := h.eng.Processed(); got != h.ran {
		h.t.Fatalf("%s: Processed() = %d, %d events ran", when, got, h.ran)
	}
}

// farPending reports whether an overflow event is still queued.
func (h *orderHarness) farPending() bool {
	for _, ev := range h.events {
		if ev.far && !ev.done {
			return true
		}
	}
	return false
}

func runOrderScript(t *testing.T, script []byte) reached {
	h := &orderHarness{t: t, eng: NewEngine(), script: script, budget: 2000}
	h.ids[0] = h.eng.Bind(orderHandler{h, 0})
	h.ids[1] = h.eng.Bind(orderHandler{h, 1})
	h.ids[2] = h.eng.Bind(orderHandler{h, 2})
	for h.pos < len(h.script) {
		switch op, arg := h.next()%8, h.next(); op {
		case 0, 1, 2: // post from outside
			h.post(arg)
		case 4:
			before := h.ran
			limit := uint64(arg%5 + 1)
			if n := h.eng.Run(limit); n != h.ran-before || n > limit {
				t.Fatalf("Run(%d) = %d, %d events ran", limit, n, h.ran-before)
			}
		case 5:
			if h.farPending() {
				h.heldOver++
			}
			deadline := h.eng.Now() + reach[arg%16]
			h.eng.RunUntil(deadline)
			if h.eng.Now() != deadline {
				t.Fatalf("RunUntil(%d) left the clock at %d", deadline, h.eng.Now())
			}
			for id, ev := range h.events {
				if !ev.done && ev.at <= deadline {
					t.Fatalf("RunUntil(%d) left event %d, due at %d", deadline, id, ev.at)
				}
			}
		case 6:
			if arg%4 == 0 { // mid-stream, with events still queued
				if h.farPending() {
					h.heldOver++
				}
				h.eng.Reset()
				h.events, h.pending, h.ran = h.events[:0], 0, 0
				if h.eng.Now() != 0 {
					t.Fatalf("Reset left the clock at %d", h.eng.Now())
				}
			}
		case 3, 7:
			had := h.pending > 0
			if h.eng.Step() != had {
				t.Fatalf("Step() = %v with %d events pending", !had, h.pending)
			}
		}
		h.counts("between steps")
	}
	h.eng.Run(0)
	h.counts("drained")
	if h.pending != 0 {
		t.Fatalf("%d events never ran", h.pending)
	}
	return h.reached
}

func TestEngineOrderProperty(t *testing.T) {
	var total reached
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 64+rng.Intn(448))
		rng.Read(script)
		r := runOrderScript(t, script)
		total.laps = max(total.laps, r.laps)
		total.ties += r.ties
		total.heldOver += r.heldOver
	}
	// The scripts must reach what the calendar does differently from a
	// heap, or this test holds nothing about it.
	if total.laps < 2 || total.ties == 0 || total.heldOver == 0 {
		t.Fatalf("scripts stayed inside the ring's first laps: %+v", total)
	}
	t.Logf("%+v", total)
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 7, 0, 7, 0, 7, 0})               // three at one time, then stepped
	f.Add([]byte{0, 0, 3, 0, 3, 30, 1, 1, 4, 4, 6, 0, 0, 5})        // posts from inside, a Run, a Reset
	f.Add([]byte{0, 3, 0, 7, 5, 1, 5, 1, 5, 3, 2, 40, 7, 0, 3, 77}) // RunUntil short of the queue
	f.Add([]byte{0, 32, 0, 16, 0, 0, 7, 0, 0, 7, 0, 0, 7, 0, 0})    // priorities 2, 1, 0 posted at one time
	// Across the horizon (post byte b: reach[b%16] ahead, priority b/16%3):
	f.Add([]byte{0, 13, 0, 1, 5, 1, 1, 12, 7, 0, 0, 7, 0, 0})           // overflow and ring tie at (ringSize, 0)
	f.Add([]byte{0, 13, 5, 3, 0, 12, 7, 0, 0, 7, 0, 0})                 // overflow root before the ring's head
	f.Add([]byte{0, 12, 5, 3, 0, 12, 0, 13, 7, 0, 0, 7, 0, 0, 7, 0, 0}) // a wrapped bucket, then one a full lap ahead
	f.Add([]byte{0, 15, 5, 14, 0, 13, 6, 0, 0, 14, 0, 2, 7, 0, 0})      // overflow held over RunUntil and Reset
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<12 {
			t.Skip()
		}
		runOrderScript(t, script)
	})
}
