package service_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/service"
	"dhisq/internal/workloads"
)

func testKeys(n int) [][sha256.Size]byte {
	rng := rand.New(rand.NewSource(7))
	keys := make([][sha256.Size]byte, n)
	for i := range keys {
		rng.Read(keys[i][:])
	}
	return keys
}

func shardNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://shard-%d:8080", i)
	}
	return out
}

// Every key routes to exactly one shard, and that shard is a member.
func TestRingRoutesEveryKey(t *testing.T) {
	shards := shardNames(5)
	ring, err := service.NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	member := make(map[string]bool)
	for _, s := range shards {
		member[s] = true
	}
	for _, k := range testKeys(5000) {
		owner := ring.Route(k)
		if !member[owner] {
			t.Fatalf("key routed to non-member %q", owner)
		}
	}
}

// Routing is a pure function of the member list: two independently built
// rings — including one built from a permuted list, as different cluster
// processes may order their -cluster flag differently — agree on every
// key. This is what lets shards route without coordinating.
func TestRingDeterministicAcrossBuilds(t *testing.T) {
	shards := shardNames(4)
	a, _ := service.NewRing(shards)
	b, _ := service.NewRing(shards)
	permuted := []string{shards[2], shards[0], shards[3], shards[1]}
	c, _ := service.NewRing(permuted)
	for _, k := range testKeys(2000) {
		if a.Route(k) != b.Route(k) || a.Route(k) != c.Route(k) {
			t.Fatalf("independently built rings disagree on key %x", k[:6])
		}
	}
}

// The consistent-hashing contract, pinned exactly: removing one of N
// shards remaps ONLY the keys that shard owned. Every key owned by a
// surviving shard keeps its owner — their caches, replica pools, and
// on-disk stores stay valid through the membership change.
func TestRingRemovalChurn(t *testing.T) {
	shards := shardNames(5)
	full, _ := service.NewRing(shards)
	reduced, _ := service.NewRing(shards[:4]) // drop the last shard
	removed := shards[4]

	keys := testKeys(10000)
	moved := 0
	for _, k := range keys {
		before, after := full.Route(k), reduced.Route(k)
		if before == removed {
			moved++
			continue // these keys must move somewhere
		}
		if before != after {
			t.Fatalf("key owned by surviving shard %q remapped to %q", before, after)
		}
	}
	// The removed shard owned ~1/5 of the keyspace; allow generous slack
	// around the expectation, but a grossly skewed split means the vnode
	// spread is broken.
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.35 {
		t.Errorf("removed shard owned %.1f%% of keys, expected ~20%%", 100*frac)
	}
}

// The keyspace splits roughly evenly across shards (vnode smoothing).
func TestRingBalance(t *testing.T) {
	shards := shardNames(4)
	ring, _ := service.NewRing(shards)
	counts := make(map[string]int)
	keys := testKeys(20000)
	for _, k := range keys {
		counts[ring.Route(k)]++
	}
	expect := float64(len(keys)) / float64(len(shards))
	for s, n := range counts {
		if f := float64(n) / expect; f < 0.5 || f > 1.5 {
			t.Errorf("shard %s owns %d keys, expected ~%.0f (ratio %.2f)", s, n, expect, f)
		}
	}
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := service.NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := service.NewRing([]string{"a", ""}); err == nil {
		t.Error("empty shard name accepted")
	}
	if _, err := service.NewRing([]string{"a", "b", "a"}); err == nil {
		t.Error("duplicate shard accepted")
	}
}

// The fingerprint Resolve gives a submission — what -cluster routes on — is
// bind-invariant and deterministic: every binding of one parameterized
// family yields the same one, different circuit families yield different
// ones, and it never depends on seeds or shot counts.
func TestRouteKeyBindInvariant(t *testing.T) {
	route := func(req service.Request) artifact.Fingerprint {
		t.Helper()
		a, err := service.Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		return a.Fingerprint
	}
	sweep := workloads.QFTSweep(4)
	base := service.Request{Circuit: sweep, Shots: 10,
		Params: workloads.QFTSweepPoint(4, 0)}
	k1 := route(base)
	other := base
	other.Params = workloads.QFTSweepPoint(4, 3)
	other.Shots = 999
	other.Seed = 42
	if route(other) != k1 {
		t.Error("two bindings of one skeleton route to different keys")
	}
	asSweep := base
	asSweep.Params, asSweep.Sweep = nil, []map[string]float64{workloads.QFTSweepPoint(4, 1)}
	if route(asSweep) != k1 {
		t.Error("a sweep of the skeleton routes away from its single bindings")
	}
	if route(service.Request{Circuit: workloads.GHZ(4), Shots: 10}) == k1 {
		t.Error("distinct circuit families share a routing key")
	}
	if _, err := service.Resolve(service.Request{Shots: 1}); err == nil {
		t.Error("Resolve accepted a nil circuit")
	}
}
