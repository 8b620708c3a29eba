package compiler

import (
	"fmt"

	"dhisq/internal/isa"
)

// Schedule resolves each controller's directive stream into a timed
// instruction stream: guard padding so commits never trail the classical
// pipeline, the Fig. 6 backward sync slide (insertSyncBack) against the
// calibrated windows Lower recorded, anchor accounting at blocking fmr/recv
// points, and branch-body assembly for conditioned commits (whose in-branch
// guard wait depends on the instruction count accumulated here).
//
// Options.Padded turns the slide off: every sync sits immediately before
// its synchronized instruction with the window fully padded, the
// QubiC-style scheme the paper improves on (§2.1.3) and the "off" side of
// the booking-advance ablation (§4.2).
type Schedule struct{}

// Name implements Pass.
func (Schedule) Name() string { return "schedule" }

// Run implements Pass.
func (Schedule) Run(st *State) error {
	if st.lowered == nil {
		return fmt.Errorf("compiler: schedule before lower")
	}
	return replayStreams(st, !st.Opt.Padded)
}

// replayStreams is the shared directive replay: one timed stream per
// controller, with advance deciding whether sync bookings slide backwards
// (Fig. 6) or pad in place. No directive reads another controller's
// state, so replaying the streams one at a time reproduces the monolithic
// compiler's interleaved emission exactly. Streams replay one after
// another, so each writes its arena on the free tail of one allocation, and
// its bookings to its own cut of another; they take turns with one buffer
// of slide candidates. The allocation holds every payload and two instructions a
// directive, which covers the guard and gate waits unless one is wide.
func replayStreams(st *State, advance bool) error {
	size, nsync := 0, 0
	for i := range st.lowered {
		size += len(st.lowered[i].ins) + 2*len(st.lowered[i].dirs)
		nsync += st.lowered[i].syncs
	}
	free := make([]isa.Instr, size)
	syncs := make([]booking, nsync)
	var recent []unit
	st.scheduled = make([]stream, len(st.lowered))
	for i := range st.lowered {
		l := &st.lowered[i]
		s := &st.scheduled[i]
		s.ins = free[:0]
		s.syncs, syncs = syncs[:0:l.syncs], syncs[l.syncs:]
		s.recent = recent[:0]
		pos := int32(0) // the next payload in l.ins
		for j := range l.dirs {
			d := &l.dirs[j]
			if d.parts&pGuard != 0 {
				s.guard(int64(d.extra))
			}
			if d.parts&pSync != 0 {
				s.insertSyncBack(d.target, int64(d.window), advance)
			}
			if d.parts&pUnit != 0 {
				at := len(s.ins)
				s.ins = append(s.ins, l.ins[pos:pos+d.n]...)
				pos += d.n
				s.push(at, 0, d.flags&fDet != 0, d.flags&fWindow != 0)
			}
			if d.parts&pAnchor != 0 {
				s.anchor()
			}
			if d.parts&pWait != 0 {
				s.wait(d.wait, false)
			}
			if d.parts&pCond != 0 {
				scheduleCond(s, l.ins[pos:pos+d.n], d)
				pos += d.n
			}
		}
		// A stream that outgrew the free tail moved to an allocation of its
		// own, with a larger capacity; one that did not took its length.
		if cap(s.ins) == cap(free) {
			free = free[len(s.ins):]
		}
		recent, s.recent = s.recent, nil
	}
	return nil
}

// scheduleCond assembles a conditioned commit: the gather, the branch over
// the body, and the body — guard wait, trigger, the gate's own wait. The
// in-branch guard wait covers every instruction that can retire between the
// last pipeline anchor and the commit; a recv inside the gather sequence
// re-anchors the stream, shrinking the guard to the local instruction count.
func scheduleCond(s *stream, payload []isa.Instr, d *directive) {
	ncw := 1
	if d.flags&fWideCW != 0 {
		ncw = 3
	}
	pre, cw := payload[:len(payload)-ncw], payload[len(payload)-ncw:]
	anchored := d.flags&fAnchored != 0
	guardAmt := pipeGuard + s.instrSum + int64(len(pre)) + 8
	if anchored {
		guardAmt = pipeGuard + int64(len(pre)) + 8
	}
	body := waitLen(guardAmt) + len(cw) + waitLen(d.wait)
	brOp := isa.OpBEQ
	if d.flags&fBNE != 0 {
		brOp = isa.OpBNE
	}
	at := len(s.ins)
	s.ins = append(s.ins, pre...)
	s.ins = append(s.ins, isa.Instr{Op: brOp, Rs1: regParity, Imm: int32(4 * (body + 1))})
	s.ins = appendWait(s.ins, guardAmt)
	s.ins = append(s.ins, cw...)
	s.ins = appendWait(s.ins, d.wait)
	s.push(at, 0, false, false)
	if anchored {
		s.anchor()
		// The body retires after the anchor; seed the counters so the
		// next guard still covers it.
		s.instrSum = int64(body) + 4
	}
}
