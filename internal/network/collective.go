package network

import (
	"slices"

	"dhisq/internal/registry"
)

// collSchedules are the names the -collective flag and the wire field
// accept, in documentation order. Any one of them turns on the compiler's
// collective-aware feed-forward lowering (compiler.Options.Collective) and
// nothing else; they are kept as names, not folded into a bool, so a job
// that names one keeps its meaning and a misspelt one is refused.
var collSchedules = []string{"naive", "ring", "halving", "tree", "auto"}

// CollScheduleNames lists the accepted collective schedule names.
func CollScheduleNames() []string { return slices.Clone(collSchedules) }

// ParseCollSchedule checks a CLI/API collective schedule name and returns
// it. There is no default: "" means "collectives off" to every caller, not a
// schedule.
func ParseCollSchedule(s string) (string, error) {
	return registry.Lookup("collective schedule", s, "", collSchedules, func(n string) string { return n })
}
