// Package registry is the one name → value idiom of the stack: a fixed,
// ordered list of named values, "" resolving to a default, and one error
// text for a name that is not on the list. Placement policies, scheduling
// policies, collective schedules and fabric topologies all resolve through
// it, so every CLI flag and wire field rejects a bad name the same way.
package registry

import (
	"fmt"
	"strings"
)

// Names lists the values' names in registry order.
func Names[T any](vals []T, nameOf func(T) string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = nameOf(v)
	}
	return out
}

// Lookup resolves name among vals ("" = def; an empty def means the
// registry has no default and "" is unknown like any other miss). what names
// the registry in the error: unknown <what> "x" (want a, b, c).
func Lookup[T any](what, name, def string, vals []T, nameOf func(T) string) (T, error) {
	if name == "" {
		name = def
	}
	for _, v := range vals {
		if nameOf(v) == name {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want %s)", what, name, strings.Join(Names(vals, nameOf), ", "))
}
