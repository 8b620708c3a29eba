package circuit

import "fmt"

// This file implements the dynamic-circuit constructions of Figure 14 and
// the paper's §6.4.2 benchmarks: long-range CNOT (and controlled-phase) via
// gate teleportation with measurement and parity-conditioned Pauli
// feed-forward, following Bäumer et al. [3]. The constructions keep circuit
// depth constant in the qubit distance — the property Figure 14 highlights —
// and they are verified against direct CNOT application in the package tests
// using the stabilizer oracle.

// LongRangeCNOT appends a CNOT between ctrl and tgt implemented through the
// given chain of ancilla qubits (all assumed |0⟩ and returned to classical
// states; they are measured inside the block). Works for any number of
// ancillas:
//
//	0 ancillas: plain CNOT
//	1 ancilla:  CNOT ladder + X-basis measurement + conditioned Z (cat method)
//	m ≥ 2:      constant-depth Bell-pair/entanglement-swap construction with
//	            only parity-conditioned X on target and Z on control at the
//	            end (the "XOR" boxes of Fig. 14). Odd m leaves one ancilla idle.
func (c *Circuit) LongRangeCNOT(ctrl, tgt int, ancillas []int) *Circuit {
	m := len(ancillas)
	if m == 0 {
		return c.CNOT(ctrl, tgt)
	}
	if m%2 == 1 {
		// Odd chain: copy the control's basis value onto the ancilla
		// adjacent to the target with the even-chain construction, apply the
		// CNOT locally, then uncompute the copy with an X-basis measurement
		// and a conditioned Z on the control (the cat method). For m == 1
		// this is the plain three-gate ladder.
		cat := ancillas[m-1]
		c.LongRangeCNOT(ctrl, cat, ancillas[:m-1])
		c.CNOT(cat, tgt)
		c.H(cat)
		mb := c.MeasureNew(cat)
		c.CondGate(Z, Condition{Bits: []int{mb}, Parity: 1}, ctrl)
		c.ResetGate(cat)
		return c
	}
	k := m / 2
	a := ancillas

	// Layer 1+2: Bell pairs (a[2i], a[2i+1]).
	for i := 0; i < k; i++ {
		c.H(a[2*i])
		c.CNOT(a[2*i], a[2*i+1])
	}
	// Layer 3 (all disjoint, constant depth): endpoint entangling CNOTs and
	// the entanglement-swap CNOTs at every junction (a[2i+1], a[2i+2]).
	c.CNOT(ctrl, a[0])
	for i := 0; i < k-1; i++ {
		c.CNOT(a[2*i+1], a[2*i+2])
	}
	c.CNOT(a[m-1], tgt)
	// Layer 4: X-basis rotations for the swap sources and the final half.
	for i := 0; i < k-1; i++ {
		c.H(a[2*i+1])
	}
	c.H(a[m-1])
	// Layer 5: measure everything in parallel.
	m1 := c.MeasureNew(a[0]) // Z basis
	xBits := make([]int, 0, k)
	zBits := make([]int, 0, k)
	for i := 0; i < k-1; i++ {
		xBits = append(xBits, c.MeasureNew(a[2*i+1])) // X basis (after H)
		zBits = append(zBits, c.MeasureNew(a[2*i+2])) // Z basis
	}
	m2 := c.MeasureNew(a[m-1]) // X basis (after H)

	// Feed-forward: X on target conditioned on m1 ⊕ (⊕ swap Z outcomes);
	// Z on control conditioned on m2 ⊕ (⊕ swap X outcomes).
	c.CondGate(X, Condition{Bits: append([]int{m1}, zBits...), Parity: 1}, tgt)
	c.CondGate(Z, Condition{Bits: append([]int{m2}, xBits...), Parity: 1}, ctrl)
	// Reset drive: every measured ancilla returns to |0⟩ so chains can be
	// reused by subsequent long-range gates.
	for i := 0; i < m; i++ {
		c.ResetGate(a[i])
	}
	return c
}

// LongRangeCZ appends a CZ between a and b through the ancilla chain,
// reusing the CNOT construction with a basis change on the target.
func (c *Circuit) LongRangeCZ(a, b int, ancillas []int) *Circuit {
	c.H(b)
	c.LongRangeCNOT(a, b, ancillas)
	c.H(b)
	return c
}

// LongRangeCPhase appends a controlled-phase between ctrl and tgt through
// the ancilla chain using the cat-state method: the control's basis value is
// copied to the ancilla nearest the target with a (long-range) CNOT, the
// phase is applied locally, and the copy is uncomputed by an X-basis
// measurement with a conditioned Z on the control [6]. This is the primitive
// that makes the distributed QFT of Fig. 1 possible.
func (c *Circuit) LongRangeCPhase(ctrl, tgt int, theta float64, ancillas []int) *Circuit {
	if len(ancillas) == 0 {
		return c.CPhaseGate(ctrl, tgt, theta)
	}
	last := len(ancillas) - 1
	cat := ancillas[last]
	c.LongRangeCNOT(ctrl, cat, ancillas[:last])
	c.CPhaseGate(cat, tgt, theta)
	c.H(cat)
	m := c.MeasureNew(cat)
	c.CondGate(Z, Condition{Bits: []int{m}, Parity: 1}, ctrl)
	c.ResetGate(cat)
	return c
}

// DualRailEmbedding maps an L-qubit logical circuit onto a 2×L grid device:
// logical qubit i lives at physical index i (the data rail) and physical
// index L+i is its dedicated ancilla (the ancilla rail). A two-qubit gate
// between logical i and j routes through the contiguous ancilla segment
// anc(i)..anc(j), which is adjacent to both endpoints vertically and
// internally adjacent horizontally — so every emitted two-qubit gate is
// nearest-neighbor on the grid and no chain ever crosses live data. This is
// the device layout for the paper's benchmark conversion (§6.4.2): static
// circuits gain ancilla qubits and all non-adjacent interactions become
// Fig. 14 dynamic long-range gates.
type DualRailEmbedding struct{}

// PhysicalQubits returns 2·logical.
func (DualRailEmbedding) PhysicalQubits(logical int) int { return 2 * logical }

// GridW returns the mesh width the embedded circuit assumes (qubit p sits at
// mesh position (p%L, p/L)).
func (DualRailEmbedding) GridW(logical int) int { return logical }

// Embed rewrites the logical circuit into a dynamic physical circuit.
func (DualRailEmbedding) Embed(lc *Circuit) (*Circuit, error) {
	L := lc.NumQubits
	phys := New(2 * L)
	phys.NumBits = lc.NumBits
	anc := func(i int) int { return L + i }
	// chain returns the ancilla path from logical from to logical to,
	// inclusive of both endpoints' ancillas.
	chain := func(from, to int) []int {
		step := 1
		if from > to {
			step = -1
		}
		out := make([]int, 0, (to-from)*step+1)
		for i := from; ; i += step {
			out = append(out, anc(i))
			if i == to {
				return out
			}
		}
	}
	for _, op := range lc.Ops {
		if op.Kind.IsTwoQubit() && op.Cond == nil {
			a, b := op.Qubits[0], op.Qubits[1]
			d := a - b
			if d < 0 {
				d = -d
			}
			if d == 1 {
				phys.add(Op{Kind: op.Kind, Qubits: []int{a, b}, Param: op.Param, CBit: -1, Sym: op.Sym, Bound: op.Bound})
				continue
			}
			if op.Symbolic() {
				return nil, fmt.Errorf("circuit: cannot route unbound %s(%s) long-range (the decomposition halves the angle; Bind first)", op.Kind, op.Sym)
			}
			switch op.Kind {
			case CNOT:
				phys.LongRangeCNOT(a, b, chain(a, b))
			case CZ:
				phys.LongRangeCZ(a, b, chain(a, b))
			case CPhase:
				phys.LongRangeCPhase(a, b, op.Param, chain(a, b))
			case SWAP:
				phys.LongRangeCNOT(a, b, chain(a, b))
				phys.LongRangeCNOT(b, a, chain(b, a))
				phys.LongRangeCNOT(a, b, chain(a, b))
			}
			continue
		}
		mapped := Op{Kind: op.Kind, Param: op.Param, CBit: op.CBit, Cond: op.Cond, Sym: op.Sym, Bound: op.Bound}
		mapped.Qubits = append(mapped.Qubits, op.Qubits...)
		phys.Ops = append(phys.Ops, mapped)
		if op.Kind.IsTwoQubit() {
			d := op.Qubits[0] - op.Qubits[1]
			if d < 0 {
				d = -d
			}
			if d > 1 {
				return nil, fmt.Errorf("circuit: conditioned long-range %s not supported", op.Kind)
			}
		}
	}
	return phys, nil
}

// SwapRouteCNOT appends the static alternative Figure 14 contrasts against:
// a CNOT implemented by SWAP-routing the control next to the target and
// back. Depth grows linearly with distance — the ablation benchmark
// (exp.Fig14LongRange) measures exactly this against LongRangeCNOT.
func (c *Circuit) SwapRouteCNOT(ctrl, tgt int, chain []int) *Circuit {
	pos := ctrl
	for _, a := range chain {
		c.SWAP(pos, a)
		pos = a
	}
	c.CNOT(pos, tgt)
	for i := len(chain) - 1; i >= 0; i-- {
		prev := ctrl
		if i > 0 {
			prev = chain[i-1]
		}
		c.SWAP(chain[i], prev)
	}
	return c
}
