package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Consistent-hash routing for a dhisq-serve cluster. Jobs are routed by
// their fingerprint (Admission.Fingerprint — the bind-invariant structural
// key for Params and Sweep jobs), so every binding of a circuit family lands
// on one shard — that shard compiles the family's
// skeleton once, keeps its replica pool warm, and owns its spilled
// artifact on disk. Consistent hashing (rather than key mod N) bounds
// the damage of membership change: when one of N shards leaves, only the
// keys it owned move (~K/N of the keyspace), so the other shards' caches,
// pools, and stores stay valid. TestRingRemovalChurn pins that property
// exactly, not approximately.

// ringVnodes is the number of points each shard contributes to the ring.
// More vnodes smooth the keyspace split (the expected imbalance across
// shards falls as 1/sqrt(vnodes)); 128 keeps the ring a few KB for any
// plausible cluster while holding the spread within a few percent.
const ringVnodes = 128

type ringPoint struct {
	hash  uint64
	shard int // index into Ring.shards
}

// Ring maps fingerprints to shard names. It is immutable once built and
// therefore safe for concurrent use; it is also a pure function of the
// member list — two processes that build a Ring from the same names agree
// on every routing decision without ever talking to each other, which is
// what lets any shard answer "who owns this job" locally.
type Ring struct {
	shards []string
	points []ringPoint // sorted by hash
}

// NewRing builds a ring over the given shard names (order-insensitive:
// the names are hashed, not their positions). Names must be non-empty
// and unique — duplicate members would silently double a shard's
// keyspace share.
func NewRing(shards []string) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("service: ring needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("service: empty shard name")
		}
		if seen[s] {
			return nil, fmt.Errorf("service: duplicate shard %q", s)
		}
		seen[s] = true
	}
	r := &Ring{
		shards: append([]string(nil), shards...),
		points: make([]ringPoint, 0, len(shards)*ringVnodes),
	}
	for i, s := range r.shards {
		for v := 0; v < ringVnodes; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", s, v)))
			r.points = append(r.points, ringPoint{
				hash:  binary.BigEndian.Uint64(sum[:8]),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// A full 64-bit hash collision between vnodes is effectively
		// impossible, but the tiebreak keeps Route deterministic even then.
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// Members returns the shard names (a copy, in construction order).
func (r *Ring) Members() []string { return append([]string(nil), r.shards...) }

// Route returns the shard that owns the fingerprint: the first ring
// point at or clockwise-after the key's position (wrapping past the top).
// The key's position is the first 8 bytes of the fingerprint — already a
// uniform SHA-256 prefix, so no rehash is needed.
func (r *Ring) Route(fp [sha256.Size]byte) string {
	h := binary.BigEndian.Uint64(fp[:8])
	i := sort.Search(len(r.points), func(k int) bool { return r.points[k].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.shards[r.points[i].shard]
}
