package circuit

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dhisq/internal/quantum"
	"dhisq/internal/stabilizer"
)

// rowOp is a valid op of kind k on a four-qubit, one-bit circuit.
func rowOp(k Kind) Op {
	r := k.row()
	op := Op{Kind: k, Qubits: []int{2, 1}, CBit: -1}
	if r.operands == 1 {
		op.Qubits = []int{2}
	}
	switch r.param {
	case angle:
		op.Param = 0.625
	case cycles:
		op.Param = 7
	}
	if k == Measure {
		op.CBit = 0
	}
	return op
}

// TestGateTableCoversEveryKind holds the table to its own claims: a row per
// kind, mnemonics that lead back to their kind, dense and tableau columns
// that agree wherever both exist, and a QASM spelling that reads back as
// the op it spelled.
func TestGateTableCoversEveryKind(t *testing.T) {
	if len(gateSet) != int(EPR)+1 {
		t.Fatalf("gateSet has %d rows, kinds run to %d", len(gateSet), EPR)
	}
	seen := map[string]Kind{}
	for k := H; k <= EPR; k++ {
		r := k.row()
		if r.name == "" || r.operands == 0 {
			t.Fatalf("kind %d has no row", k)
		}
		if prev, dup := seen[r.name]; dup {
			t.Errorf("%s and %s share the name %q", prev, k, r.name)
		}
		seen[r.name] = k
		op := rowOp(k)
		c := &Circuit{NumQubits: 4, NumBits: 1, Ops: []Op{op}}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: the row's own op does not validate: %v", k, err)
		}

		// Mnemonic and aliases resolve to the kind; a kind QASM cannot spell
		// has none in the index.
		for _, name := range append([]string{r.name}, r.aliases...) {
			got, ok := mnemonics[name]
			switch {
			case r.noQASM || r.operands == variadic:
				if ok {
					t.Errorf("%s: %q is in the scanner's index", k, name)
				}
			case !ok || got != k:
				t.Errorf("%s: mnemonic %q resolves to %s (found %v)", k, name, got, ok)
			}
		}

		// What WriteQASM spells, ParseQASM reads back exactly.
		src, err := WriteQASM(c)
		if r.noQASM {
			if err == nil {
				t.Errorf("%s: WriteQASM spelled a kind marked noQASM:\n%s", k, src)
			}
		} else if err != nil {
			t.Errorf("%s: WriteQASM: %v", k, err)
		} else if back, err := ParseQASM(src); err != nil {
			t.Errorf("%s: ParseQASM(WriteQASM): %v\n%s", k, err, src)
		} else if !reflect.DeepEqual(back, c) {
			t.Errorf("%s: ParseQASM(WriteQASM(c)) = %+v, want %+v", k, back.Ops, c.Ops)
		}

		// The columns: every kind runs dense; exactly the Clifford ones run
		// on the tableau, and there the two agree.
		if _, ok := Exec(Dense(quantum.NewState(4)), oneStream{rand.New(rand.NewSource(1))}, k, op.Param, 2, 1); !ok {
			t.Errorf("%s: no dense action", k)
		}
		_, ok := Exec(Tableau(stabilizer.New(4)), oneStream{rand.New(rand.NewSource(1))}, k, op.Param, 2, 1)
		if ok != r.clifford {
			t.Errorf("%s: tableau action present = %v, row says clifford = %v", k, ok, r.clifford)
		}
		if r.clifford {
			agreeOnRandomCliffordStates(t, k, op.Param)
		}
	}
}

// agreeOnRandomCliffordStates applies k, through Exec, to random stabilizer
// states on both substrates — identical gate streams, the dense side
// projected onto whatever the tableau drew — and requires identical
// deterministic-outcome patterns and probabilities afterwards (the
// comparison of stabilizer.TestAgainstStateVector).
func agreeOnRandomCliffordStates(t *testing.T, k Kind, param float64) {
	t.Helper()
	const n = 4
	rng := oneStream{rand.New(rand.NewSource(int64(k)))}
	prep := []Kind{H, S, Sdg, X, Y, Z, CNOT, CZ, SWAP}
	for trial := 0; trial < 40; trial++ {
		// The tableau's outcomes are written down; the dense state is
		// projected onto them, in order, instead of drawing its own.
		var drawn []int
		t4, s4 := stabilizer.New(n), quantum.NewState(n)
		tab, sv := Tableau(t4), Dense(s4)
		tab.measure = func(q int, rng *rand.Rand) int {
			drawn = append(drawn, t4.MeasureZ(q, rng))
			return drawn[len(drawn)-1]
		}
		sv.measure = func(q int, _ *rand.Rand) int {
			out := drawn[0]
			drawn = drawn[1:]
			s4.Project(q, out)
			return out
		}
		both := func(k Kind, param float64, a, b int) {
			Exec(tab, rng, k, param, a, b)
			Exec(sv, rng, k, param, a, b)
		}
		for g := 0; g < 30; g++ {
			q := rng.Intn(n)
			both(prep[rng.Intn(len(prep))], 0, q, (q+1+rng.Intn(n-1))%n)
		}
		both(k, param, 2, 1)
		for q := 0; q < n; q++ {
			out, det := t4.MeasureDeterministic(q)
			switch p := s4.Prob(q); {
			case det && math.Abs(p-float64(out)) > 1e-9:
				t.Fatalf("%s trial %d qubit %d: tableau says deterministic %d, dense prob %g", k, trial, q, out, p)
			case !det && math.Abs(p-0.5) > 1e-9:
				t.Fatalf("%s trial %d qubit %d: tableau says random, dense prob %g", k, trial, q, p)
			}
		}
	}
}
