package artifact

import (
	"math"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/network"
)

// Key discrimination and collision suite: the fingerprint must separate
// everything that changes compiler output and unify everything that
// cannot (±0 angles, bindings under the structural key).

func keyEnv(n int) (network.Config, compiler.Options) {
	net := network.DefaultConfig(n)
	return net, compiler.DefaultOptions(0, n)
}

func TestKeyCanonicalizesSignedZero(t *testing.T) {
	net, opt := keyEnv(1)
	pos := circuit.New(1).RZGate(0, 0.0)
	neg := circuit.New(1).RZGate(0, math.Copysign(0, -1))
	if Key(pos, nil, net, opt, false) != Key(neg, nil, net, opt, false) {
		t.Fatal("-0.0 and +0.0 angles fingerprint differently despite identical programs")
	}
	if Key(pos, nil, net, opt, true) != Key(neg, nil, net, opt, true) {
		t.Fatal("-0.0 and +0.0 angles structurally distinct")
	}
	other := circuit.New(1).RZGate(0, 1e-300)
	if Key(pos, nil, net, opt, false) == Key(other, nil, net, opt, false) {
		t.Fatal("tiny nonzero angle collides with zero")
	}
}

func TestStructuralKeySharedAcrossBindings(t *testing.T) {
	net, opt := keyEnv(2)
	skel := circuit.New(2)
	skel.RZSym(0, "a").CPhaseSym(0, 1, "b").MeasureInto(0, 0)
	b1, err := skel.Bind(map[string]float64{"a": 0.1, "b": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := skel.Bind(map[string]float64{"a": 2.5, "b": -1})
	if err != nil {
		t.Fatal(err)
	}
	sk := Key(skel, nil, net, opt, true)
	if Key(b1, nil, net, opt, true) != sk || Key(b2, nil, net, opt, true) != sk {
		t.Fatal("bindings do not share the skeleton's structural key")
	}
	if Key(b1, nil, net, opt, false) == Key(b2, nil, net, opt, false) {
		t.Fatal("different bindings share a full key")
	}
	if Key(skel, nil, net, opt, false) == sk {
		t.Fatal("structural key collides with the full key of the same circuit")
	}
	// Concrete circuits also get a stable, distinct structural key.
	conc := circuit.New(1).RZGate(0, 0.5)
	if Key(conc, nil, net, opt, true) == Key(conc, nil, net, opt, false) {
		t.Fatal("concrete structural key collides with full key")
	}
}

func TestKeySeparatesSymbolNames(t *testing.T) {
	net, opt := keyEnv(1)
	mk := func(sym string) *circuit.Circuit {
		c := circuit.New(1)
		c.RZSym(0, sym)
		return c
	}
	a, b := mk("alpha"), mk("beta")
	if Key(a, nil, net, opt, false) == Key(b, nil, net, opt, false) {
		t.Fatal("different symbol names share a full key")
	}
	if Key(a, nil, net, opt, true) == Key(b, nil, net, opt, true) {
		t.Fatal("different symbol names share a structural key")
	}
	// A symbolic op and a concrete op never alias, even at equal Params.
	conc := circuit.New(1).RZGate(0, 0)
	if Key(a, nil, net, opt, false) == Key(conc, nil, net, opt, false) {
		t.Fatal("symbolic op aliases concrete op")
	}
}
