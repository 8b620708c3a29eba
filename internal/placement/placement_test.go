package placement

import (
	"reflect"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/network"
	"dhisq/internal/workloads"
)

func topoFor(t *testing.T, n int) *network.Topology {
	t.Helper()
	topo, err := network.NewTopology(network.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// hotspot builds the adversarial-for-identity circuit the interaction
// placer exists for: a star where every data qubit talks to one hub that
// the identity placement parks in the far corner of the mesh.
func hotspot(n int) *circuit.Circuit {
	c := circuit.New(n)
	hub := n - 1
	for round := 0; round < 3; round++ {
		for q := 0; q < n-1; q++ {
			c.CNOT(q, hub)
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

func TestRegistry(t *testing.T) {
	want := []string{"identity", "interaction"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range append(want, "") {
		if err := Valid(name); err != nil {
			t.Fatalf("Valid(%q): %v", name, err)
		}
	}
	c, topo := workloads.GHZ(4), topoFor(t, 4)
	if m, err := Place("", c, topo); err != nil || m != nil {
		t.Fatalf("Place(\"\") = %v, %v; want the %s placement (nil)", m, err, Default)
	}
	want0 := `unknown placement policy "bogus" (want identity, interaction)`
	if err := Valid("bogus"); err == nil || err.Error() != want0 {
		t.Fatalf("Valid(bogus) = %v, want %q", err, want0)
	}
	if _, err := Place("bogus", c, topo); err == nil || err.Error() != want0 {
		t.Fatalf("Place(bogus) = %v, want %q", err, want0)
	}
}

func TestIdentityIsNil(t *testing.T) {
	c := workloads.GHZ(9)
	topo := topoFor(t, 9)
	m, err := Place("identity", c, topo)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatalf("identity mapping = %v, want nil (legacy convention)", m)
	}
}

// TestPoliciesProduceValidPermutations: every policy's explicit output is
// a permutation — distinct controllers, all in range — on every workload.
func TestPoliciesProduceValidPermutations(t *testing.T) {
	cases := map[string]*circuit.Circuit{
		"ghz":     workloads.GHZ(12),
		"qft":     workloads.QFT(10),
		"bv":      workloads.BV(11, workloads.AlternatingSecret),
		"hotspot": hotspot(12),
	}
	for name, c := range cases {
		topo := topoFor(t, c.NumQubits)
		for _, pname := range Names() {
			m, err := Place(pname, c, topo)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, pname, err)
			}
			if m == nil {
				continue // identity: nil is valid by convention
			}
			if len(m) != c.NumQubits {
				t.Fatalf("%s/%s: mapping length %d, want %d", name, pname, len(m), c.NumQubits)
			}
			seen := map[int]bool{}
			for q, ctrl := range m {
				if ctrl < 0 || ctrl >= topo.N {
					t.Fatalf("%s/%s: qubit %d -> controller %d out of [0,%d)", name, pname, q, ctrl, topo.N)
				}
				if seen[ctrl] {
					t.Fatalf("%s/%s: controller %d assigned twice", name, pname, ctrl)
				}
				seen[ctrl] = true
			}
		}
	}
}

// TestPoliciesDeterministic: repeated placement of the same circuit is
// bit-identical — the property that makes a policy name cacheable.
func TestPoliciesDeterministic(t *testing.T) {
	c := hotspot(14)
	topo := topoFor(t, 14)
	for _, pname := range Names() {
		first, err := Place(pname, c, topo)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			again, err := Place(pname, c, topo)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%s: run %d produced %v, first run %v", pname, i, again, first)
			}
		}
	}
}

// TestInteractionNeverWorseThanIdentity: on the hand-built hotspot (and
// the standard sweep workloads) the interaction placer's weighted-distance
// objective is <= identity's — guaranteed by the explicit fallback, and
// strictly better on the hotspot where the hub must leave the corner.
func TestInteractionNeverWorseThanIdentity(t *testing.T) {
	cases := map[string]*circuit.Circuit{
		"hotspot": hotspot(16),
		"ghz":     workloads.GHZ(16),
		"qft":     workloads.QFT(12),
		"bv":      workloads.BV(16, workloads.AlternatingSecret),
	}
	for name, c := range cases {
		topo := topoFor(t, c.NumQubits)
		im, err := Place("interaction", c, topo)
		if err != nil {
			t.Fatal(err)
		}
		ic, dc := CircuitCost(c, im, topo), CircuitCost(c, nil, topo)
		if ic > dc {
			t.Fatalf("%s: interaction cost %d > identity cost %d", name, ic, dc)
		}
		if name == "hotspot" && ic >= dc {
			t.Fatalf("hotspot: interaction cost %d should beat identity %d strictly", ic, dc)
		}
	}
}

// TestInteractionUsesFeedforwardTraffic: conditioned ops count as
// interactions between consumer and measuring qubit.
func TestInteractionUsesFeedforwardTraffic(t *testing.T) {
	c := circuit.New(9)
	c.MeasureInto(0, 0)
	for i := 0; i < 4; i++ {
		c.CondGate(circuit.X, circuit.Condition{Bits: []int{0}, Parity: 1}, 8)
	}
	w := interactionWeights(c)
	if w[0][8] != 4 || w[8][0] != 4 {
		t.Fatalf("feed-forward weight = %d/%d, want 4/4", w[0][8], w[8][0])
	}
}

func TestPlacementRejectsOversizedCircuit(t *testing.T) {
	c := workloads.GHZ(10)
	topo := topoFor(t, 4)
	for _, pname := range Names() {
		if _, err := Place(pname, c, topo); err == nil {
			t.Fatalf("%s accepted 10 qubits on 4 controllers", pname)
		}
	}
}

func TestAutoMeshMatchesNearSquare(t *testing.T) {
	for _, n := range []int{1, 2, 3, 9, 10, 30, 100} {
		w, h := AutoMesh(n)
		nw, nh := network.NearSquareMesh(n)
		if w != nw || h != nh {
			t.Fatalf("AutoMesh(%d) = %dx%d, want %dx%d", n, w, h, nw, nh)
		}
	}
}
