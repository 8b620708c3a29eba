package main

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dhisq/internal/artifact"
)

// clusterOf is the cluster every member of urls builds from the same
// -cluster list, seen from urls[0].
func clusterOf(t *testing.T, urls []string) *cluster {
	t.Helper()
	cl, err := newCluster(strings.Join(urls, ","), urls[0])
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func testKeys(n int) []artifact.Fingerprint {
	rng := rand.New(rand.NewSource(7))
	keys := make([]artifact.Fingerprint, n)
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
func TestRouteOwnsEveryKey(t *testing.T) {
	shards := shardNames(5)
	cl := clusterOf(t, shards)
	member := make(map[string]bool)
	for _, s := range shards {
		member[s] = true
	}
	for _, k := range testKeys(5000) {
		if owner := cl.route(k); !member[owner] {
			t.Fatalf("key routed to non-member %q", owner)
		}
	}
}

// A member list routes only if it names at least one member, every member
// has a host, and no member appears twice: a member listed twice would
// hand out job IDs under one prefix from two shards.
func TestClusterRejectsBadMembers(t *testing.T) {
	if _, err := newCluster(" , ", "http://a:1"); err == nil {
		t.Error("list with no member accepted")
	}
	if _, err := newCluster("http://a:1,http://", "http://a:1"); err == nil {
		t.Error("hostless member accepted")
	}
	if _, err := newCluster("http://a:1,http://b:2,a:1/", "http://a:1"); err == nil {
		t.Error("duplicate member accepted")
	}
}

// Routing is a pure function of the member set: two independently built
// clusters — including one built from a permuted list, as different
// processes may order their -cluster flag differently — agree on every
// key. This is what lets shards route without coordinating.
func TestRouteIgnoresMemberOrder(t *testing.T) {
	shards := shardNames(4)
	a, b := clusterOf(t, shards), clusterOf(t, shards)
	c := clusterOf(t, []string{shards[2], shards[0], shards[3], shards[1]})
	for _, k := range testKeys(2000) {
		if a.route(k) != b.route(k) || a.route(k) != c.route(k) {
			t.Fatalf("independently built clusters disagree on key %x", k[:6])
		}
	}
}

// The consistent-hashing contract, pinned exactly: removing one of N
// shards remaps ONLY the keys that shard owned. Every key owned by a
// surviving shard keeps its owner — their caches, replica pools, and
// on-disk stores stay valid through the membership change.
func TestRouteRemovalChurn(t *testing.T) {
	shards := shardNames(5)
	full := clusterOf(t, shards)
	reduced := clusterOf(t, shards[:4]) // drop the last shard
	removed := shards[4]

	keys := testKeys(10000)
	moved := 0
	for _, k := range keys {
		before, after := full.route(k), reduced.route(k)
		if before == removed {
			moved++
			continue // these keys must move somewhere
		}
		if before != after {
			t.Fatalf("key owned by surviving shard %q remapped to %q", before, after)
		}
	}
	// The removed shard owned ~1/5 of the keyspace; allow generous slack
	// around the expectation, but a grossly skewed split means the hash
	// spread is broken.
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.35 {
		t.Errorf("removed shard owned %.1f%% of keys, expected ~20%%", 100*frac)
	}
}

// The keyspace splits roughly evenly across shards.
func TestRouteBalance(t *testing.T) {
	shards := shardNames(4)
	cl := clusterOf(t, shards)
	counts := make(map[string]int)
	keys := testKeys(20000)
	for _, k := range keys {
		counts[cl.route(k)]++
	}
	expect := float64(len(keys)) / float64(len(shards))
	for _, s := range shards {
		n := counts[s]
		if f := float64(n) / expect; f < 0.5 || f > 1.5 {
			t.Errorf("shard %s owns %d keys, expected ~%.0f (ratio %.2f)", s, n, expect, f)
		}
	}
}
