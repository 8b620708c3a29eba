package service

import (
	"reflect"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
)

// The pool never looks inside a machine: blank ones drive it.
func blanks(n int) []*machine.Machine {
	ms := make([]*machine.Machine, n)
	for i := range ms {
		ms[i] = new(machine.Machine)
	}
	return ms
}

// keyN is the n-th of a family of distinct fingerprints.
func keyN(n int) artifact.Fingerprint { return artifact.Fingerprint{byte(n)} }

// pooled reads a group's pooled replica count (-1: the pool does not know
// the group) and checks the pool's books while it is there.
func pooled(t *testing.T, p *replicaPool, fp artifact.Fingerprint) int {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	sum := 0
	for _, g := range p.groups {
		sum += len(g)
	}
	if sum != p.total || p.total > p.budget || len(p.order) != len(p.groups) || len(p.groups) > p.budget {
		t.Fatalf("pool books: %d machines in %d groups, total %d, order %d, budget %d",
			sum, len(p.groups), p.total, len(p.order), p.budget)
	}
	if g, ok := p.groups[fp]; ok {
		return len(g)
	}
	return -1
}

// The budget holds after every step of an interleaving of checkouts and
// checkins over more groups than it has room for.
func TestPoolBudgetHolds(t *testing.T) {
	p := newReplicaPool(4, 1)
	held := map[int][]*machine.Machine{}
	for step := 0; step < 200; step++ {
		k := (step * 7) % 6
		if step%3 == 2 {
			out := p.checkout(keyN(k), 1+step%2)
			held[k] = append(held[k], out...)
		} else {
			p.checkin(keyN(k), append(held[k], blanks(1+step%3)...))
			held[k] = nil
		}
		pooled(t, p, keyN(k))
	}
}

// Eviction takes the least recently used group, and both checkin and
// checkout count as use.
func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	p := newReplicaPool(2, 1)
	a, b, c, d := keyN(1), keyN(2), keyN(3), keyN(4)
	p.checkin(a, blanks(1))
	p.checkin(b, blanks(1))
	p.checkin(c, blanks(1))
	if pooled(t, p, a) != -1 || pooled(t, p, b) != 1 || pooled(t, p, c) != 1 {
		t.Fatal("a third group did not evict the first")
	}
	out := p.checkout(b, 1) // b is now more recent than c
	if len(out) != 1 {
		t.Fatalf("checkout handed out %d machines, want 1", len(out))
	}
	p.checkin(b, out)
	p.checkin(d, blanks(1))
	if pooled(t, p, c) != -1 || pooled(t, p, b) != 1 || pooled(t, p, d) != 1 {
		t.Fatal("eviction did not follow use order: c should have gone, b and d stayed")
	}
}

// Checkout never hands one machine to two callers, and asking for more than
// the group has takes what there is.
func TestPoolCheckoutIsExclusive(t *testing.T) {
	p := newReplicaPool(4, 1)
	a := keyN(1)
	p.checkin(a, blanks(3))
	first := p.checkout(a, 2)
	second := p.checkout(a, 2)
	third := p.checkout(a, 2)
	if len(first) != 2 || len(second) != 1 || third != nil {
		t.Fatalf("checkouts of 3 pooled machines: %d, %d, %d; want 2, 1, 0", len(first), len(second), len(third))
	}
	if first[0] == second[0] || first[1] == second[0] {
		t.Fatal("one machine checked out twice")
	}
}

// A group alone in the pool and over budget is trimmed, not evicted.
func TestPoolTrimsTheSoleGroup(t *testing.T) {
	p := newReplicaPool(2, 1)
	a := keyN(1)
	p.checkin(a, blanks(5))
	if n := pooled(t, p, a); n != 2 {
		t.Fatalf("sole group holds %d machines after an over-budget checkin, want 2", n)
	}
}

// A group emptied by checkout keeps its LRU position: an empty checkout
// does not count as use, and the group is evicted in its turn though it
// holds no machine.
func TestPoolEmptiedGroupEvictedInTurn(t *testing.T) {
	p := newReplicaPool(2, 1)
	a, b, c := keyN(1), keyN(2), keyN(3)
	p.checkin(a, blanks(1))
	p.checkin(b, blanks(1))
	if out := p.checkout(a, 1); len(out) != 1 || pooled(t, p, a) != 0 {
		t.Fatalf("checkout of a's one machine: got %d, %d left pooled; want 1, 0", len(out), pooled(t, p, a))
	}
	p.checkin(b, p.checkout(b, 1)) // b is now more recent than a
	if p.checkout(a, 1) != nil {
		t.Fatal("an emptied group handed out a machine")
	}
	if !reflect.DeepEqual(p.order, []artifact.Fingerprint{b, a}) {
		t.Fatalf("LRU order %v after an empty checkout of a, want [b a]", p.order)
	}

	p.checkin(c, blanks(1)) // three groups in a budget of two: a is last, and goes
	if pooled(t, p, a) != -1 || pooled(t, p, b) != 1 || pooled(t, p, c) != 1 {
		t.Fatal("the emptied group was not evicted in its turn")
	}
	if p.checkout(a, 1) != nil || pooled(t, p, a) != -1 {
		t.Fatal("checkout of an evicted group handed out a machine or brought the group back")
	}
}

// Over budget, groups give up what they hold above the floor, least
// recently used first, before any group is evicted.
func TestPoolTrimsToTheFloorBeforeEvicting(t *testing.T) {
	p := newReplicaPool(4, 1)
	a, b, c := keyN(1), keyN(2), keyN(3)
	p.checkin(a, blanks(2))
	p.checkin(b, blanks(2))
	p.checkin(c, blanks(2))
	if pooled(t, p, a) != 1 || pooled(t, p, b) != 1 || pooled(t, p, c) != 2 {
		t.Fatalf("pooled a, b, c = %d, %d, %d; want 1, 1, 2", pooled(t, p, a), pooled(t, p, b), pooled(t, p, c))
	}
	d, e := keyN(4), keyN(5)
	p.checkin(d, blanks(2)) // c and d give up their surplus: four groups fit at the floor
	if pooled(t, p, a) != 1 || pooled(t, p, b) != 1 || pooled(t, p, c) != 1 || pooled(t, p, d) != 1 {
		t.Fatal("a fourth group's checkin did not trim every group to the floor")
	}
	p.checkin(e, blanks(2)) // no surplus is left but e's own: then a, the oldest, goes
	if pooled(t, p, a) != -1 || pooled(t, p, b) != 1 || pooled(t, p, e) != 1 {
		t.Fatal("with every group at the floor, the least recently used was not evicted")
	}
}
