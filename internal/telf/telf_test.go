package telf

import (
	"slices"
	"strings"
	"testing"
)

func TestTextParseRoundTrip(t *testing.T) {
	l := NewLog()
	l.Add(Event{Time: 10, Node: 0, Kind: CWCommit, A: 7, B: 2, C: 10})
	l.Add(Event{Time: 12, Node: 1, Kind: SyncBook, A: 36, B: 42})
	l.Add(Event{Time: 42, Node: 1, Kind: SyncDone, A: 36, B: 42, C: 41})
	l.Add(Event{Time: 50, Node: 0, Kind: Violation, A: 3, B: 4})
	l.Add(Event{Time: 60, Node: 2, Kind: NetStall, A: -1, B: 4, C: 3})
	text := l.Text()
	back, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(l.Events) {
		t.Fatalf("%d events, want %d", len(back.Events), len(l.Events))
	}
	for i := range l.Events {
		if back.Events[i] != l.Events[i] {
			t.Fatalf("event %d: %v != %v", i, back.Events[i], l.Events[i])
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"not a telf line",
		"5 node=1 nosuchkind a=0 b=0 c=0",
		"1 node=0 halt a=0 b=0", // no cause
		"1 node=0 halt a=0 b=0 c=0c=7",
		"1 node=0 halt a=0 b=0 c=0 trailing junk",
		"+1 node=0 halt a=0 b=0 c=0",
		"1 node=0 halt a=0 b=0 c=+1",
	} {
		if l, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) accepted %v", line, l.Events)
		}
	}
}

func TestCountsSurviveDisabledStorage(t *testing.T) {
	l := NewLog()
	l.SetEnabled(false)
	l.Add(Event{Time: 1, Kind: Violation})
	l.Add(Event{Time: 2, Kind: Violation})
	l.Add(Event{Time: 3, Kind: Stall, A: int64(StallRecv), B: 4})
	l.Add(Event{Time: 4, Kind: Stall, A: int64(StallRecv), B: 5})
	l.Add(Event{Time: 5, Kind: Stall, A: int64(StallNet), B: 6})
	l.Add(Event{Time: 6, Kind: Stall, A: -1, B: 7}) // no such reason
	if len(l.Events) != 0 {
		t.Fatal("events stored while disabled")
	}
	if l.Count(Violation) != 2 {
		t.Fatalf("count = %d, want 2", l.Count(Violation))
	}
	want := [...]int64{StallSync: 0, StallRecv: 9, StallFMR: 0, StallNet: 6}
	for r, w := range want {
		if got := l.Stalled(int64(r)); got != w {
			t.Fatalf("Stalled(%d) = %d, want %d", r, got, w)
		}
	}
	l.Reset()
	if l.Stalled(StallRecv) != 0 || l.Count(Stall) != 0 {
		t.Fatal("Reset kept the stall ledger")
	}
}

func TestCommitsFilterAndSort(t *testing.T) {
	l := NewLog()
	l.Add(Event{Time: 30, Node: 0, Kind: CWCommit, A: 1, B: 7})
	l.Add(Event{Time: 10, Node: 0, Kind: CWCommit, A: 2, B: 7})
	l.Add(Event{Time: 20, Node: 0, Kind: CWCommit, A: 3, B: 5}) // other port
	l.Add(Event{Time: 15, Node: 1, Kind: CWCommit, A: 4, B: 7}) // other node
	got := l.Commits(0, 7)
	if len(got) != 2 || got[0].Time != 10 || got[1].Time != 30 {
		t.Fatalf("commits = %v", got)
	}
	if all := l.Commits(0, -1); len(all) != 3 {
		t.Fatalf("wildcard port commits = %d", len(all))
	}
}

// Deltas[i] is B's i-th commit time minus A's, signed, in commit order;
// B's unpaired trailing commit is not compared.
func TestCheckAlignment(t *testing.T) {
	l := NewLog()
	for i := int64(0); i < 3; i++ {
		l.Add(Event{Time: 100 * (i + 1), Node: 0, Kind: CWCommit, A: 1, B: 7})
		l.Add(Event{Time: 100*(i+1) + 55 - 30*i, Node: 1, Kind: CWCommit, A: 1, B: 5})
	}
	l.Add(Event{Time: 900, Node: 1, Kind: CWCommit, A: 1, B: 5})
	rep := CheckAlignment(l, 0, 7, 1, 5)
	if rep.Pairs != 3 {
		t.Fatalf("pairs = %d", rep.Pairs)
	}
	if want := []int64{55, 25, -5}; !slices.Equal(rep.Deltas, want) {
		t.Fatalf("deltas = %v, want %v", rep.Deltas, want)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 5, Node: 2, Kind: MsgSend, A: 1, B: 9}
	if s := e.String(); !strings.Contains(s, "msg_send") || !strings.Contains(s, "node=2") {
		t.Fatalf("bad string: %q", s)
	}
}
