package runner

import (
	"math"
	"math/rand"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/network"
)

// remoteOracleCircuit builds a fixed random circuit with cross-half
// two-qubit gates, mid-circuit measurement and feed-forward — the shape
// the multi-chip expansion has to get right.
func remoteOracleCircuit(seed int64, n int, clifford bool) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	oneQ := []circuit.Kind{circuit.H, circuit.X, circuit.S, circuit.Z}
	for i := 0; i < 5*n; i++ {
		switch rng.Intn(4) {
		case 0:
			c.Gate(oneQ[rng.Intn(len(oneQ))], rng.Intn(n))
		case 1, 2:
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				b = (b + 1) % n
			}
			switch k := rng.Intn(4); {
			case k == 0:
				c.CNOT(a, b)
			case k == 1:
				c.CZ(a, b)
			case k == 2:
				c.SWAP(a, b)
			case clifford:
				c.CNOT(a, b)
			default:
				c.CPhaseGate(a, b, 0.25+0.5*rng.Float64())
			}
		default:
			q := rng.Intn(n)
			mb := c.MeasureNew(q)
			c.CondGate(circuit.X, circuit.Condition{Bits: []int{mb}, Parity: 1}, (q+1)%n)
		}
	}
	for q := 0; q < n; q++ {
		c.MeasureNew(q)
	}
	return c
}

func remoteSpec(c *circuit.Circuit, chips int, backend machine.BackendKind, policy string) Spec {
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Chips = chips
	cfg.Backend = backend
	cfg.Placement = policy
	w, h := network.NearSquareMesh(cfg.TotalQubits(c.NumQubits))
	return Spec{Circuit: c, MeshW: w, MeshH: h, Cfg: cfg}
}

func tvd(a, b Histogram, shots int) float64 {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var d float64
	for k := range keys {
		d += math.Abs(float64(a[k])-float64(b[k])) / float64(shots)
	}
	return d / 2
}

// TestRemoteDistributionEquality is the machine-level half of the
// remote-gate oracle battery: over a large shot stream, a multi-chip
// machine's public-bit histogram must match the merged single-chip
// machine's. Heralds draw from their own stream, but the data stream is
// drawn in measurement order, which the teleported gates move, so the check
// is statistical (total variation distance): a broken teleportation
// correction shifts outcome mass by 0.25 or more, far above the threshold.
func TestRemoteDistributionEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shot distribution comparison")
	}
	const shots = 1200
	cases := []struct {
		name    string
		backend machine.BackendKind
		seed    int64
	}{
		{"statevec", machine.BackendStateVec, 11},
		{"stabilizer", machine.BackendStabilizer, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := remoteOracleCircuit(tc.seed, 4, tc.backend == machine.BackendStabilizer)
			for _, chips := range []int{2, 3} {
				for _, policy := range []string{"identity", "interaction"} {
					multi, err := Run(remoteSpec(c, chips, tc.backend, policy), shots, 4)
					if err != nil {
						t.Fatalf("chips=%d policy=%s: %v", chips, policy, err)
					}
					single, err := Run(remoteSpec(c, 0, tc.backend, policy), shots, 4)
					if err != nil {
						t.Fatalf("single-chip policy=%s: %v", policy, err)
					}
					if multi.NumBits != single.NumBits {
						t.Fatalf("chips=%d: public bit width %d, single-chip %d", chips, multi.NumBits, single.NumBits)
					}
					if d := tvd(multi.Histogram(), single.Histogram(), shots); d > 0.15 {
						t.Fatalf("chips=%d policy=%s: TVD %.3f between multi-chip and merged histograms", chips, policy, d)
					}
				}
			}
		})
	}
}
