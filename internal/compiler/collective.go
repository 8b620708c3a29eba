package compiler

import (
	"sort"

	"dhisq/internal/circuit"
	"dhisq/internal/isa"
	"dhisq/internal/network"
)

// Collective-aware feed-forward lowering (Options.Collective). The legacy
// lowering distributes measured bits as a star: every consumption site
// makes each remote bit's owner send it straight to the actor, and the
// actor fan-ins one RECV per remote bit. This file lowers the same sites
// through two collective shapes of its own, ordered by nothing but the
// fabric Topology's hop distances (topoDistance); the fabric sees only the
// ordinary point-to-point sends and receives they compile to:
//
//   - broadcast: a single remote bit is fetched from its *nearest current
//     holder*, and the actor stores the received value at the bit's home
//     address (4*bit) — becoming a holder itself. Consumers of a hot bit
//     therefore chain into a distance-ordered distribution tree instead of
//     all loading the owner's uplink.
//   - reduce: a multi-bit parity gather becomes an XOR relay chain over
//     the owners, ordered farthest-first from the actor. Each owner folds
//     its own bits locally, XORs in the running parity from its
//     predecessor, and forwards one word — the actor receives a single
//     combined value instead of one message per owner.
//
// Both shapes preserve the deadlock-freedom argument of the legacy sends:
// every unit emitted on a non-actor stream is a slide-stop (not fDet),
// so no later sync can book before it, and the relay edges form a chain
// that only points forward (owner_i -> owner_i+1 -> actor), so the
// blocking RECVs resolve by induction over program order exactly like the
// actor's own gathers always have.

// holdsBit reports whether ctrl appears in the bit's holder set.
func holdsBit(holders []int, ctrl int) bool {
	for _, h := range holders {
		if h == ctrl {
			return true
		}
	}
	return false
}

// nearestHolder picks the holder closest to the consumer (smallest id on
// ties, so the choice — and the compiled program — is deterministic).
func nearestHolder(holders []int, to int, dist func(int, int) int) int {
	best, bestD := holders[0], dist(holders[0], to)
	for _, h := range holders[1:] {
		if d := dist(h, to); d < bestD || (d == bestD && h < best) {
			best, bestD = h, d
		}
	}
	return best
}

// topoDistance builds the hop-count metric nearest-holder selection and
// relay ordering use: mesh distance where intra-layer links exist, tree
// path hops on the pure-tree topology.
func topoDistance(topo *network.Topology) func(int, int) int {
	if topo.Cfg.Topology == network.TopoTree {
		return topo.TreePathHops
	}
	return topo.MeshDistance
}

// lowerCondCollective lowers one parity-conditioned commit with the
// collective shapes above. It mirrors the legacy pCond path exactly — same
// directive, same branch assembly in the Schedule pass — and differs only
// in how the remote bits reach the actor. The holders' and owners' units
// are written first, so the actor's gather is one contiguous payload.
func (st *State) lowerCondCollective(streams []lowerStream, op circuit.Op, actor, q int, holders map[int][]int, dist func(int, int) int) {
	var local, remote []int
	for _, b := range op.Cond.Bits {
		if holdsBit(holders[b], actor) {
			local = append(local, b)
		} else {
			remote = append(remote, b)
		}
	}

	// from is the controller the actor receives from: the nearest holder of
	// a single remote bit, or the last link of a relay chain.
	from := -1
	switch {
	case len(remote) == 1:
		// Broadcast-tree fetch: nearest holder sends, actor re-stores.
		b := remote[0]
		from = nearestHolder(holders[b], actor, dist)
		hs := &streams[from]
		lo := hs.mark()
		hs.loadImm(regAddr, int32(4*b))
		hs.emit(isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr},
			isa.Instr{Op: isa.OpSEND, Rs1: regScratch, Imm: int32(actor)})
		hs.unit(lo, 0)
		st.stats.Sends++

	case len(remote) >= 2:
		// Reduce relay chain: group the remote bits by owner, order the
		// owners farthest-first from the actor, and thread one running
		// parity word down the chain.
		groups := map[int][]int{}
		var order []int
		for _, b := range remote {
			o := st.bitOwner[b]
			if _, ok := groups[o]; !ok {
				order = append(order, o)
			}
			groups[o] = append(groups[o], b)
		}
		sort.Slice(order, func(i, j int) bool {
			di, dj := dist(order[i], actor), dist(order[j], actor)
			if di != dj {
				return di > dj
			}
			return order[i] < order[j]
		})
		for i, o := range order {
			os := &streams[o]
			next := actor
			if i+1 < len(order) {
				next = order[i+1]
			}
			lo := os.mark()
			os.emit(isa.Instr{Op: isa.OpADDI, Rd: regParity})
			for _, b := range groups[o] {
				os.loadImm(regAddr, int32(4*b))
				os.emit(isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr},
					isa.Instr{Op: isa.OpXOR, Rd: regParity, Rs1: regParity, Rs2: regScratch})
			}
			if i == 0 {
				// Chain head: local fold and forward, nothing to receive.
				os.emit(isa.Instr{Op: isa.OpSEND, Rs1: regParity, Imm: int32(next)})
				os.unit(lo, 0)
			} else {
				// Chain link: local fold, then block on the predecessor's
				// running parity. The RECV re-anchors the owner's timing
				// point (same contract as the actor's gathers), so the
				// anchor directive keeps its guard accounting honest.
				os.unit(lo, 0)
				lo = os.mark()
				os.emit(isa.Instr{Op: isa.OpRECV, Rd: regScratch, Imm: int32(order[i-1])})
				os.unit(lo, 0)
				os.anchorDir()
				lo = os.mark()
				os.emit(isa.Instr{Op: isa.OpXOR, Rd: regParity, Rs1: regParity, Rs2: regScratch},
					isa.Instr{Op: isa.OpSEND, Rs1: regParity, Imm: int32(next)})
				os.unit(lo, 0)
				st.stats.Recvs++
			}
			st.stats.Sends++
		}
		from = order[len(order)-1]
	}

	// Parity is an XOR fold — commutative — so gathering locals first and
	// remotes after computes the same bit as the legacy interleaved order.
	s := &streams[actor]
	lo := s.mark()
	s.emit(isa.Instr{Op: isa.OpADDI, Rd: regParity}) // r2 = 0
	for _, b := range local {
		s.loadImm(regAddr, int32(4*b))
		s.emit(isa.Instr{Op: isa.OpLW, Rd: regScratch, Rs1: regAddr},
			isa.Instr{Op: isa.OpXOR, Rd: regParity, Rs1: regParity, Rs2: regScratch})
	}
	if from >= 0 {
		s.emit(isa.Instr{Op: isa.OpRECV, Rd: regScratch, Imm: int32(from)})
		st.stats.Recvs++
		if len(remote) == 1 {
			// Store the fetched value at the bit's home address: the actor
			// is now a holder, and the *next* consumer of this bit fetches
			// from whichever holder is nearest to it.
			b := remote[0]
			s.loadImm(regAddr, int32(4*b))
			s.emit(isa.Instr{Op: isa.OpSW, Rs1: regAddr, Rs2: regScratch})
			holders[b] = append(holders[b], actor)
		}
		s.emit(isa.Instr{Op: isa.OpXOR, Rd: regParity, Rs1: regParity, Rs2: regScratch})
	}
	s.cond(lo, tableEntryFor(op, q), op.Cond, from >= 0, st.Opt.Durations.Of(op.Kind, op.Param, st.Opt.EPRLatency))
}
