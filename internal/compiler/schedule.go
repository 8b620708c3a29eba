package compiler

import (
	"fmt"

	"dhisq/internal/isa"
	"dhisq/internal/registry"
)

// Schedule resolves each controller's directive stream into a timed unit
// stream: guard padding so commits never trail the classical pipeline,
// the Fig. 6 backward sync slide (insertSyncBack) against the calibrated
// windows Lower recorded, anchor accounting at blocking fmr/recv points,
// and branch-body assembly for conditioned commits (whose in-branch guard
// wait depends on the instruction count accumulated here).
//
// How the directives are resolved is a pluggable policy, mirroring the
// Place pass: Options.Schedule names a registered SchedulePolicy and the
// pass delegates to it. The "fixed" policy is the legacy replay,
// byte-identical to the pre-registry Schedule pass.
type Schedule struct{}

// Name implements Pass.
func (Schedule) Name() string { return "schedule" }

// Run implements Pass.
func (Schedule) Run(st *State) error {
	if st.lowered == nil {
		return fmt.Errorf("compiler: schedule before lower")
	}
	pol, err := GetSchedule(st.Opt.Schedule)
	if err != nil {
		return err
	}
	return pol.Run(st)
}

// SchedulePolicy resolves a State's lowered directive streams into the
// timed unit streams Assemble concatenates. Policies run after Lower, so
// st.lowered, the interned tables and the option set are all available;
// a policy must fill st.scheduled with one stream per controller.
//
// Policies must be deterministic — the same State input always yields the
// same streams — which is what makes a policy name safe to hash into the
// artifact fingerprint (internal/artifact keyVersion 5).
type SchedulePolicy interface {
	// Name is the registry key ("fixed", "padded").
	Name() string
	// Run resolves st.lowered into st.scheduled.
	Run(st *State) error
}

// DefaultSchedule is the policy an empty name resolves to: the legacy
// fixed replay, guaranteed byte-identical to the pre-registry compiler.
const DefaultSchedule = "fixed"

// schedulePolicies is the fixed registry, in documentation order.
var schedulePolicies = []SchedulePolicy{fixedPolicy{}, paddedPolicy{}}

// ScheduleNames lists the registered scheduling policies in stable order.
func ScheduleNames() []string { return registry.Names(schedulePolicies, SchedulePolicy.Name) }

// GetSchedule resolves a scheduling policy by name ("" = DefaultSchedule).
// Unknown names error with the valid set, so CLI and API validation share
// one message.
func GetSchedule(name string) (SchedulePolicy, error) {
	return registry.Lookup("schedule policy", name, DefaultSchedule, schedulePolicies, SchedulePolicy.Name)
}

// ValidSchedule reports whether name resolves to a registered scheduling
// policy ("" counts — it resolves to DefaultSchedule). The client-side
// check dhisq-sim -serve runs before a submission travels to the daemon.
func ValidSchedule(name string) error {
	_, err := GetSchedule(name)
	return err
}

// fixedPolicy is the legacy schedule: replay every directive in lowering
// order with the Fig. 6 placement — sync instructions slide backwards over
// deterministic work so the N-cycle countdown overlaps useful execution
// (zero-cycle overhead when slack suffices, §4.2). Streams are independent
// — no directive reads another controller's state — so replaying them one
// at a time reproduces the monolithic compiler's interleaved emission
// exactly.
type fixedPolicy struct{}

func (fixedPolicy) Name() string { return "fixed" }

func (fixedPolicy) Run(st *State) error {
	return replayStreams(st, true)
}

// paddedPolicy replays the directives without advance booking: every sync
// sits immediately before its synchronized instruction with the window
// fully padded — the QubiC-style scheme the paper improves on (§2.1.3),
// and the "off" side of the ablation experiment.
type paddedPolicy struct{}

func (paddedPolicy) Name() string { return "padded" }

func (paddedPolicy) Run(st *State) error {
	return replayStreams(st, false)
}

// replayStreams is the shared directive replay: one timed stream per
// controller, with advance deciding whether sync bookings slide backwards
// (Fig. 6) or pad in place.
func replayStreams(st *State, advance bool) error {
	st.scheduled = make([]*stream, len(st.lowered))
	for i, l := range st.lowered {
		s := &stream{id: l.id}
		for _, d := range l.dirs {
			switch d.kind {
			case dUnit:
				s.push(d.u)
			case dWait:
				s.wait(d.amt)
			case dGuard:
				s.guard(d.amt)
			case dAnchor:
				s.anchor()
			case dSync:
				s.insertSyncBack(d.target, d.window, advance)
			case dCond:
				scheduleCond(s, d.cond)
			default:
				return fmt.Errorf("compiler: controller %d: unknown directive kind %d", l.id, d.kind)
			}
		}
		// The scheduled stream inherits the table interned at lowering time.
		s.table = l.table
		st.scheduled[i] = s
	}
	return nil
}

// scheduleCond assembles a conditioned commit. The in-branch guard wait
// covers every instruction that can retire between the last pipeline
// anchor and the commit; a recv inside the gather sequence re-anchors the
// stream, shrinking the guard to the local instruction count.
func scheduleCond(s *stream, c *condSite) {
	guardAmt := pipeGuard + s.instrSum + int64(len(c.pre)) + 8
	if c.anchored {
		guardAmt = pipeGuard + int64(len(c.pre)) + 8
	}
	body := waitInstrs(guardAmt)
	body = append(body, c.cw...)
	body = append(body, waitInstrs(c.gateWait)...)
	ins := make([]isa.Instr, 0, len(c.pre)+1+len(body))
	ins = append(ins, c.pre...)
	ins = append(ins, isa.Instr{Op: c.brOp, Rs1: regParity, Imm: int32(4 * (len(body) + 1))})
	ins = append(ins, body...)
	s.push(unit{ins: ins})
	if c.anchored {
		s.anchor()
		// The body retires after the anchor; seed the counters so the
		// next guard still covers it.
		s.instrSum = int64(len(body)) + 4
	}
}
