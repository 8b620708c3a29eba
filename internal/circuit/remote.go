package circuit

import "fmt"

// This file implements EPR-mediated remote two-qubit gates between chips,
// following the distributed-CNOT recipe of DiAdamo et al. and the squidasm
// routines (SNIPPETS.md §1–2): generate an EPR pair across the chip boundary,
// entangle the control with its half (the cat-entangler), apply the gate
// locally on the far side, and disentangle with an X-basis measurement and
// parity-conditioned Pauli corrections. Where dynamic.go routes through
// chains of free ancillas on one chip, these constructions consume a single
// shared EPR pair held on dedicated communication qubits — the inter-chip
// primitive of the multi-chip model (DESIGN.md §12). The constructions are
// verified against merged-single-chip execution in the package tests.

// remoteControlled appends the teleported version of the two-qubit gate op
// (control side = op.Qubits[0], on the chip owning comm qubit ka; target
// side = op.Qubits[1], on the chip owning comm qubit kb):
//
//	EPR(ka,kb); CNOT(ctrl,ka); m1 = M(ka); X(kb) if m1   — cat-entangler:
//	    kb now carries the control's basis value, entangled with ctrl
//	G(kb, tgt)                                           — the gate, locally
//	H(kb); m2 = M(kb); Z(ctrl) if m2                     — cat-disentangler
//	Reset(ka); Reset(kb)                                 — recycle the pair
//
// The comm qubits return to |0⟩ so subsequent remote gates can reuse them.
func (c *Circuit) remoteControlled(op Op, ka, kb int) *Circuit {
	ctrl, tgt := op.Qubits[0], op.Qubits[1]
	c.Gate(EPR, ka, kb)
	c.CNOT(ctrl, ka)
	m1 := c.MeasureNew(ka)
	c.CondGate(X, Condition{Bits: []int{m1}, Parity: 1}, kb)
	c.add(Op{Kind: op.Kind, Qubits: []int{kb, tgt}, Param: op.Param, Sym: op.Sym, Bound: op.Bound})
	c.H(kb)
	m2 := c.MeasureNew(kb)
	c.CondGate(Z, Condition{Bits: []int{m2}, Parity: 1}, ctrl)
	c.ResetGate(ka)
	c.ResetGate(kb)
	return c
}

// RemoteCNOT appends a CNOT between ctrl and tgt mediated by the EPR pair
// (ka, kb), where ka is a communication qubit co-located with ctrl and kb
// one co-located with tgt.
func (c *Circuit) RemoteCNOT(ctrl, tgt, ka, kb int) *Circuit {
	return c.remoteControlled(Op{Kind: CNOT, Qubits: []int{ctrl, tgt}}, ka, kb)
}

// RemoteCZ appends a CZ between a and b mediated by the EPR pair (ka, kb).
func (c *Circuit) RemoteCZ(a, b, ka, kb int) *Circuit {
	return c.remoteControlled(Op{Kind: CZ, Qubits: []int{a, b}}, ka, kb)
}

// RemoteCPhase appends a controlled-phase between a and b mediated by the
// EPR pair (ka, kb). Unlike the long-range chain construction, the teleported
// form applies the phase gate with its original angle (the control is copied,
// not half-angle decomposed), so symbolic parameters survive — remote-gate
// circuits flow through the bind path unchanged.
func (c *Circuit) RemoteCPhase(a, b int, theta float64, ka, kb int) *Circuit {
	return c.remoteControlled(Op{Kind: CPhase, Qubits: []int{a, b}, Param: theta}, ka, kb)
}

// ExpandRemote rewrites circuit c for a device of the given chip count:
// chipOf[q] names the chip holding data qubit q, and each chip j gains one
// communication qubit at index c.NumQubits+j. Two-qubit gates whose operands
// share a chip pass through unchanged; cross-chip CNOT/CZ/CPhase become
// teleported constructions over the two chips' comm-qubit EPR pair, and a
// cross-chip SWAP becomes three teleported CNOTs. The returned circuit has
// c.NumQubits+chips qubits; classical bits 0..c.NumBits-1 keep their
// meaning and teleport outcomes occupy new bits after them (the compiler
// records c.NumBits as PublicBits so results stay comparable to the
// unexpanded circuit).
func ExpandRemote(c *Circuit, chipOf []int, chips int) (*Circuit, error) {
	if chips < 1 {
		return nil, fmt.Errorf("circuit: ExpandRemote with %d chips", chips)
	}
	if len(chipOf) != c.NumQubits {
		return nil, fmt.Errorf("circuit: chip partition covers %d qubits, circuit has %d", len(chipOf), c.NumQubits)
	}
	for q, ch := range chipOf {
		if ch < 0 || ch >= chips {
			return nil, fmt.Errorf("circuit: qubit %d assigned to chip %d of %d", q, ch, chips)
		}
	}
	out := New(c.NumQubits + chips)
	out.NumBits = c.NumBits
	comm := func(chip int) int { return c.NumQubits + chip }
	remote := func(op Op) error {
		a, b := op.Qubits[0], op.Qubits[1]
		if op.Cond != nil {
			return fmt.Errorf("circuit: conditioned cross-chip %s not supported", op.Kind)
		}
		ka, kb := comm(chipOf[a]), comm(chipOf[b])
		switch op.Kind {
		case CNOT, CZ, CPhase:
			out.remoteControlled(op, ka, kb)
		case SWAP:
			out.RemoteCNOT(a, b, ka, kb)
			out.RemoteCNOT(b, a, kb, ka)
			out.RemoteCNOT(a, b, ka, kb)
		default:
			return fmt.Errorf("circuit: cannot expand cross-chip %s", op.Kind)
		}
		return nil
	}
	for i, op := range c.Ops {
		if op.Kind == EPR {
			return nil, fmt.Errorf("circuit: op %d: EPR in input circuit (already expanded?)", i)
		}
		if op.Kind.IsTwoQubit() && len(op.Qubits) == 2 && chipOf[op.Qubits[0]] != chipOf[op.Qubits[1]] {
			if err := remote(op); err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		cp := Op{Kind: op.Kind, Param: op.Param, CBit: op.CBit, Sym: op.Sym, Bound: op.Bound}
		cp.Qubits = append([]int{}, op.Qubits...)
		if op.Cond != nil {
			cc := *op.Cond
			cc.Bits = append([]int{}, op.Cond.Bits...)
			cp.Cond = &cc
		}
		out.Ops = append(out.Ops, cp)
	}
	return out, nil
}

// RemoteGateCount returns the number of two-qubit ops in c that cross the
// chip partition — the gates ExpandRemote would teleport (a cross-chip SWAP
// counts once).
func RemoteGateCount(c *Circuit, chipOf []int) int {
	n := 0
	for _, op := range c.Ops {
		if op.Kind.IsTwoQubit() && len(op.Qubits) == 2 && chipOf[op.Qubits[0]] != chipOf[op.Qubits[1]] {
			n++
		}
	}
	return n
}
