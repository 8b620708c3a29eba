// Package telf implements the Timing Event Logging Format used to verify the
// timing behaviour of Distributed-HISQ. The paper verifies CACTUS-Light
// against the FPGA implementation by comparing TELF traces (§6.4.1); here the
// TELF log is the ground truth that tests and the Figure 13 experiment
// inspect: every codeword commit, synchronization booking/resolution, message
// transfer and timing violation is recorded with its cycle timestamp.
package telf

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a timing event.
type Kind uint8

const (
	KindInvalid Kind = iota
	CWCommit         // codeword A committed to port B
	SyncBook         // sync booked: A = target address, B = booked time-point T_i
	SyncDone         // sync resolved: A = target address, B = resume time
	SyncLate         // sync resolved after its booked window: A = target, B = lateness
	MsgSend          // message sent: A = destination node, B = value
	MsgRecv          // message received: A = source node, B = value
	MeasResult       // measurement result latched: A = channel, B = value
	Violation        // timing violation: event enqueued after its commit time; B = slip cycles
	Stall            // a controller waited: A = Stall* reason, B = cycles waited; Time = resume
	Halt             // core halted
	NetStall         // message queued at a busy link/port: A = source node (-1 router-originated), B = wait cycles
)

// Stall reasons: what the controller of a Stall event waited for (its A).
const (
	StallSync = iota // TCU timer paused past Condition I for a sync partner or router
	StallRecv        // recv waited for its message
	StallFMR         // fmr waited for its measurement result
	StallNet         // the controller's own message queued at a busy link or port
	numStallReasons
)

var kindNames = [...]string{
	KindInvalid: "invalid",
	CWCommit:    "cw_commit",
	SyncBook:    "sync_book",
	SyncDone:    "sync_done",
	SyncLate:    "sync_late",
	MsgSend:     "msg_send",
	MsgRecv:     "msg_recv",
	MeasResult:  "meas_result",
	Violation:   "violation",
	Stall:       "stall",
	Halt:        "halt",
	NetStall:    "net_stall",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one timestamped occurrence on one node. The meaning of A and B
// depends on Kind (see the Kind constants).
type Event struct {
	Time int64
	Node int
	Kind Kind
	A    int64
	B    int64
}

// String renders the event as one TELF text line.
func (e Event) String() string {
	return fmt.Sprintf("%d node=%d %s a=%d b=%d", e.Time, e.Node, e.Kind, e.A, e.B)
}

// Log accumulates events. It is not safe for concurrent use; the simulation
// kernel is single-threaded by design.
type Log struct {
	Events  []Event
	enabled bool
	// counts is a dense array, not a map: Add sits on the per-event hot
	// path of every simulation, and a map increment there is pure hashing
	// overhead for a key space of a dozen kinds.
	counts  [len(kindNames)]int
	stalled [numStallReasons]int64 // the stall ledger: Stall events' B per reason
}

// NewLog returns an enabled log.
func NewLog() *Log {
	return &Log{enabled: true}
}

// SetEnabled toggles recording; counts and stall sums are kept regardless,
// so large benchmark runs can disable event storage but keep their totals.
func (l *Log) SetEnabled(on bool) { l.enabled = on }

// Reset clears recorded events, counts and stall sums while keeping the
// enabled flag and the storage capacity, so a multi-shot run reuses one log.
func (l *Log) Reset() {
	l.Events = l.Events[:0]
	l.counts = [len(kindNames)]int{}
	l.stalled = [numStallReasons]int64{}
}

// Add records an event.
func (l *Log) Add(e Event) {
	if int(e.Kind) < len(l.counts) {
		l.counts[e.Kind]++
	}
	if e.Kind == Stall && uint64(e.A) < numStallReasons {
		l.stalled[e.A] += e.B
	}
	if l.enabled {
		l.Events = append(l.Events, e)
	}
}

// Count returns how many events of kind k were recorded (including while
// storage was disabled).
func (l *Log) Count(k Kind) int {
	if int(k) >= len(l.counts) {
		return 0
	}
	return l.counts[k]
}

// Stalled returns the cycles Stall events charged to reason r (including
// while storage was disabled).
func (l *Log) Stalled(r int64) int64 {
	if uint64(r) >= numStallReasons {
		return 0
	}
	return l.stalled[r]
}

// Commits returns all codeword commits on the given node and port, sorted by
// time. port < 0 matches every port.
func (l *Log) Commits(node, port int) []Event {
	var out []Event
	for _, e := range l.Events {
		if e.Kind == CWCommit && e.Node == node && (port < 0 || e.B == int64(port)) {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Text serializes the log, one line per event, in insertion order.
func (l *Log) Text() string {
	var b strings.Builder
	for _, e := range l.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Parse reads the Text format back into a log. It is the inverse of Text and
// rejects any line that is not, up to whitespace, its event's String.
func Parse(s string) (*Log, error) {
	l := NewLog()
	for i, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e Event
		var kind string
		_, err := fmt.Sscanf(line, "%d node=%d %s a=%d b=%d", &e.Time, &e.Node, &kind, &e.A, &e.B)
		if err != nil {
			return nil, fmt.Errorf("telf: line %d: %w", i+1, err)
		}
		e.Kind = KindInvalid
		for k, name := range kindNames {
			if name == kind {
				e.Kind = Kind(k)
				break
			}
		}
		if e.Kind == KindInvalid {
			return nil, fmt.Errorf("telf: line %d: unknown kind %q", i+1, kind)
		}
		if got := strings.Join(strings.Fields(line), " "); got != e.String() {
			return nil, fmt.Errorf("telf: line %d: %q is not the event %q", i+1, got, e.String())
		}
		l.Add(e)
	}
	return l, nil
}

// AlignmentReport describes how two commit streams line up in time. It is
// the software analogue of putting two board outputs on an oscilloscope
// (Figure 13): Deltas[i] is the cycle difference between the i-th commit of
// stream B and the i-th commit of stream A.
type AlignmentReport struct {
	Pairs  int
	Deltas []int64
}

// MaxAbsDelta returns the largest absolute misalignment, 0 for empty reports.
func (r AlignmentReport) MaxAbsDelta() int64 {
	var m int64
	for _, d := range r.Deltas {
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// Aligned reports whether every pair committed within tol cycles.
func (r AlignmentReport) Aligned(tol int64) bool { return r.MaxAbsDelta() <= tol }

// CheckAlignment pairs the commit events of (nodeA, portA) with those of
// (nodeB, portB) in order and reports their time deltas. Unpaired trailing
// commits are ignored; Pairs reports how many were compared.
func CheckAlignment(l *Log, nodeA, portA, nodeB, portB int) AlignmentReport {
	a := l.Commits(nodeA, portA)
	b := l.Commits(nodeB, portB)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	r := AlignmentReport{Pairs: n, Deltas: make([]int64, n)}
	for i := 0; i < n; i++ {
		r.Deltas[i] = b[i].Time - a[i].Time
	}
	return r
}
