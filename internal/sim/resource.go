package sim

// Resource models one serialized stage of the interconnect — a mesh link
// or a router port — as a busy-until FIFO: each message occupies the
// stage for a fixed serialization interval, and a message arriving while
// the stage is busy queues behind the in-flight ones in arrival order.
// The simulation kernel is single-threaded and processes events in
// nondecreasing time, so reservations arrive in causal order and a plain
// high-water line suffices; no event structure is needed per queued
// message.
//
// With occupancy 0 the resource is transparent: Reserve returns the
// requested time unchanged, records nothing, and the caller's schedule is
// byte-identical to a model without the resource. That is the
// disabled-equals-seed guarantee of DESIGN.md §6.
type Resource struct {
	busyUntil Time
	// Stats, valid after any Reserve with occupancy > 0.
	Messages    uint64 // messages that traversed this stage
	StallCycles Time   // cumulative cycles messages waited for the stage
	MaxQueue    int    // deepest simultaneous backlog observed
	BusyCycles  Time   // total occupancy charged (utilization numerator)
}

// Reserve books the stage for one message that wants to enter at time
// `at`, occupying it for `occupancy` cycles once in service. It returns
// the service start time (>= at) and how long the message waited.
// Messages are never dropped: a lossy fabric would break the BISP protocol.
func (r *Resource) Reserve(at, occupancy Time) (depart, waited Time) {
	if occupancy <= 0 {
		return at, 0
	}
	depart = at
	if r.busyUntil > at {
		depart = r.busyUntil
		waited = depart - at
		// Everything between `at` and busyUntil is earlier messages still
		// in service or queued; with uniform occupancy the backlog depth
		// is the wait divided by the service interval, rounded up.
		depth := int((waited + occupancy - 1) / occupancy)
		if depth > r.MaxQueue {
			r.MaxQueue = depth
		}
	}
	r.busyUntil = depart + occupancy
	r.Messages++
	r.StallCycles += waited
	r.BusyCycles += occupancy
	return depart, waited
}

// Reset clears the booking line and statistics for the next shot.
func (r *Resource) Reset() {
	*r = Resource{}
}
