package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

// recorder logs the A operand of every event it handles, in run order.
type recorder struct{ got []int64 }

func (r *recorder) HandleEvent(ev Event) { r.got = append(r.got, ev.A) }

// newRecorder returns an engine with a recorder bound to it.
func newRecorder() (*Engine, *recorder, HandlerID) {
	e, r := NewEngine(), &recorder{}
	return e, r, e.Bind(r)
}

func TestEngineOrdersByTime(t *testing.T) {
	e, r, h := newRecorder()
	e.Post(30, PriResume, h, Event{A: 3})
	e.Post(10, PriResume, h, Event{A: 1})
	e.Post(20, PriResume, h, Event{A: 2})
	e.Run(0)
	if !slices.Equal(r.got, []int64{1, 2, 3}) {
		t.Fatalf("wrong order: %v", r.got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineSameTimePriorityThenFIFO(t *testing.T) {
	e, r, h := newRecorder()
	e.Post(5, PriResume, h, Event{A: 1})  // resume-a
	e.Post(5, PriDeliver, h, Event{A: 0}) // deliver
	e.Post(5, PriResume, h, Event{A: 2})  // resume-b
	e.Run(0)
	if !slices.Equal(r.got, []int64{0, 1, 2}) {
		t.Fatalf("order = %v, want deliver, resume-a, resume-b", r.got)
	}
}

// pastPoster posts one event before the present from inside its handler.
type pastPoster struct {
	t  *testing.T
	e  *Engine
	id HandlerID
}

func (p *pastPoster) HandleEvent(ev Event) {
	defer func() {
		if recover() == nil {
			p.t.Error("expected panic scheduling in the past")
		}
	}()
	p.e.Post(5, PriResume, p.id, Event{})
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	p := &pastPoster{t: t, e: e}
	p.id = e.Bind(p)
	e.Post(10, PriResume, p.id, Event{})
	e.Run(0)
}

// chain re-posts itself one cycle ahead until it has run depth times.
type chain struct {
	e     *Engine
	id    HandlerID
	depth int
}

func (c *chain) HandleEvent(ev Event) {
	c.depth++
	if c.depth < 100 {
		c.e.Post(c.e.Now()+1, PriResume, c.id, Event{})
	}
}

func TestEngineEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	c := &chain{e: e}
	c.id = e.Bind(c)
	e.Post(0, PriResume, c.id, Event{})
	e.Run(0)
	if c.depth != 100 {
		t.Fatalf("depth = %d, want 100", c.depth)
	}
	if e.Now() != 99 {
		t.Fatalf("now = %d, want 99", e.Now())
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	e, r, h := newRecorder()
	e.Post(10, PriResume, h, Event{})
	e.Post(100, PriResume, h, Event{})
	e.RunUntil(50)
	if len(r.got) != 1 {
		t.Fatalf("ran = %d, want 1", len(r.got))
	}
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestRunWithLimit(t *testing.T) {
	e, _, h := newRecorder()
	for i := 0; i < 10; i++ {
		e.Post(Time(i), PriResume, h, Event{})
	}
	if n := e.Run(4); n != 4 {
		t.Fatalf("ran %d, want 4", n)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
}

func TestCyclesConversion(t *testing.T) {
	cases := []struct {
		ns   int64
		want Time
	}{{0, 0}, {1, 1}, {4, 1}, {5, 2}, {20, 5}, {40, 10}, {300, 75}, {-3, 0}}
	for _, c := range cases {
		if got := Cycles(c.ns); got != c.want {
			t.Errorf("Cycles(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	if Nanoseconds(75) != 300 {
		t.Errorf("Nanoseconds(75) = %d, want 300", Nanoseconds(75))
	}
}

func TestCyclesNanosecondsRoundTrip(t *testing.T) {
	// Property: for any non-negative cycle count, ns->cycles is the identity.
	f := func(c uint16) bool {
		return Cycles(Nanoseconds(Time(c))) == Time(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	// The same schedule must produce the same execution order, twice.
	build := func() (*Engine, *recorder) {
		e, r, h := newRecorder()
		for i := 0; i < 50; i++ {
			e.Post(Time(i%7), Priority(i%3), h, Event{A: int64(i)})
		}
		return e, r
	}
	e1, r1 := build()
	e1.Run(0)
	e2, r2 := build()
	e2.Run(0)
	if len(r1.got) != 50 || !slices.Equal(r1.got, r2.got) {
		t.Fatalf("divergence: %v vs %v", r1.got, r2.got)
	}
}

// reposter re-posts itself one to three cycles ahead every time it runs,
// as a controller books its next commit.
type reposter struct {
	e  *Engine
	id HandlerID
}

func (r *reposter) HandleEvent(ev Event) {
	r.e.Post(r.e.Now()+1+ev.A%3, PriResume, r.id, Event{A: ev.A + 1})
}

// BenchmarkEngine times the queue alone, one event per op: 50 handlers
// re-posting themselves, the pending population of a bv_n400/8 shot.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 50; i++ {
		r := &reposter{e: e}
		r.id = e.Bind(r)
		e.Post(0, PriResume, r.id, Event{A: int64(i)})
	}
	for b.Loop() {
		e.Step()
	}
}
