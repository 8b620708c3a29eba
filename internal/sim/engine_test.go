package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, PriResume, func() { got = append(got, 3) })
	e.At(10, PriResume, func() { got = append(got, 1) })
	e.At(20, PriResume, func() { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineSameTimePriorityThenFIFO(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(5, PriResume, func() { got = append(got, "resume-a") })
	e.At(5, PriDeliver, func() { got = append(got, "deliver") })
	e.At(5, PriResume, func() { got = append(got, "resume-b") })
	e.Run(0)
	want := []string{"deliver", "resume-a", "resume-b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, PriResume, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, PriResume, func() {})
	})
	e.Run(0)
}

func TestEngineEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(1, PriResume, rec)
		}
	}
	e.After(0, PriResume, rec)
	e.Run(0)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("now = %d, want 99", e.Now())
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, PriResume, func() { ran++ })
	e.At(100, PriResume, func() { ran++ })
	e.RunUntil(50)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestRunWithLimit(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.At(Time(i), PriResume, func() {})
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
	build := func() (*Engine, *[]int) {
		e := NewEngine()
		var order []int
		for i := 0; i < 50; i++ {
			id := i
			e.At(Time(i%7), Priority(i%3), func() { order = append(order, id) })
		}
		return e, &order
	}
	e1, o1 := build()
	e1.Run(0)
	e2, o2 := build()
	e2.Run(0)
	if len(*o1) != len(*o2) {
		t.Fatal("different lengths")
	}
	for i := range *o1 {
		if (*o1)[i] != (*o2)[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, *o1, *o2)
		}
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
