package service

import (
	"reflect"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/network"
)

// The pool never looks inside a machine: blank ones drive it.
func blanks(n int) []*machine.Machine {
	ms := make([]*machine.Machine, n)
	for i := range ms {
		ms[i] = new(machine.Machine)
	}
	return ms
}

// keyN is the n-th of a family of distinct pool keys.
func keyN(n int) poolKey { return poolKey{fp: artifact.Fingerprint{byte(n)}} }

// pooled reads a group's pooled replica count (-1: the pool does not know
// the group) and checks the pool's books while it is there.
func pooled(t *testing.T, p *replicaPool, pk poolKey) int {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	sum := 0
	for _, g := range p.groups {
		sum += len(g.machines)
	}
	if sum != p.total || p.total > p.budget || len(p.order) != len(p.groups) || len(p.groups) > p.budget {
		t.Fatalf("pool books: %d machines in %d groups, total %d, order %d, budget %d",
			sum, len(p.groups), p.total, len(p.order), p.budget)
	}
	if g := p.groups[pk]; g != nil {
		return len(g.machines)
	}
	return -1
}

// The budget holds after every step of an interleaving of checkouts and
// checkins over more groups than it has room for.
func TestPoolBudgetHolds(t *testing.T) {
	p := newReplicaPool(4)
	held := map[int][]*machine.Machine{}
	for step := 0; step < 200; step++ {
		k := (step * 7) % 6
		if step%3 == 2 {
			out, _ := p.checkout(keyN(k), 1+step%2)
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
	p := newReplicaPool(2)
	a, b, c, d := keyN(1), keyN(2), keyN(3), keyN(4)
	p.checkin(a, blanks(1))
	p.checkin(b, blanks(1))
	p.checkin(c, blanks(1))
	if pooled(t, p, a) != -1 || pooled(t, p, b) != 1 || pooled(t, p, c) != 1 {
		t.Fatal("a third group did not evict the first")
	}
	out, _ := p.checkout(b, 1) // b is now more recent than c
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
	p := newReplicaPool(4)
	a := keyN(1)
	p.checkin(a, blanks(3))
	first, _ := p.checkout(a, 2)
	second, _ := p.checkout(a, 2)
	third, _ := p.checkout(a, 2)
	if len(first) != 2 || len(second) != 1 || third != nil {
		t.Fatalf("checkouts of 3 pooled machines: %d, %d, %d; want 2, 1, 0", len(first), len(second), len(third))
	}
	if first[0] == second[0] || first[1] == second[0] {
		t.Fatal("one machine checked out twice")
	}
}

// A group alone in the pool and over budget is trimmed, not evicted.
func TestPoolTrimsTheSoleGroup(t *testing.T) {
	p := newReplicaPool(2)
	a := keyN(1)
	p.checkin(a, blanks(5))
	if n := pooled(t, p, a); n != 2 {
		t.Fatalf("sole group holds %d machines after an over-budget checkin, want 2", n)
	}
}

// A re-placed group — claimed, its replicas dropped for the swapped artifact
// — keeps its LRU position: it is evicted in its turn though it holds no
// machine, and with it everything the group knew. Coming back, it starts
// over: no feedback, no claim, no override.
func TestPoolGroupStateLivesAndDiesWithTheGroup(t *testing.T) {
	const threshold = 10
	p := newReplicaPool(2)
	a, b, c := keyN(1), keyN(2), keyN(3)
	fb := network.CongestionStats{Enabled: true, LinkStall: 6}
	swapped := &compiler.Compiled{}

	if p.claim(a, fb, threshold) != nil {
		t.Fatal("feedback claimed a group the pool does not know")
	}
	p.checkin(a, blanks(1))
	p.checkin(b, blanks(1))
	if p.claim(a, fb, threshold) != nil {
		t.Fatal("claimed below the threshold")
	}
	g := p.claim(a, fb, threshold)
	if g == nil || g.net.TotalStall() != 12 {
		t.Fatalf("second merge crossed the threshold but claimed %+v", g)
	}
	if p.claim(a, fb, threshold) != nil || g.net.TotalStall() != 12 {
		t.Fatal("a claimed group was claimed again, or kept absorbing feedback")
	}
	if !p.drop(a, g, swapped) || pooled(t, p, a) != 0 || p.size() != 1 {
		t.Fatal("drop did not discard the re-placed group's replicas")
	}
	if ms, art := p.checkout(a, 1); ms != nil || art != swapped {
		t.Fatalf("checkout of the re-placed group: %d machines, artifact %p; want none and the swapped one", len(ms), art)
	}
	if !reflect.DeepEqual(p.order, []poolKey{b, a}) {
		t.Fatalf("drop moved the group in the LRU order: %v", p.order)
	}

	p.checkin(c, blanks(1)) // two machines, three groups: a is last, and goes
	if pooled(t, p, a) != -1 || pooled(t, p, b) != 1 || pooled(t, p, c) != 1 {
		t.Fatal("the emptied group was not evicted in its turn")
	}
	if p.drop(a, g, swapped) {
		t.Fatal("drop swapped an evicted group")
	}

	p.checkin(a, blanks(1))
	fresh := p.groups[a]
	if fresh == g || fresh.replaced || fresh.artifact != nil || !reflect.DeepEqual(fresh.net, network.CongestionStats{}) {
		t.Fatalf("an evicted group came back with its old state: %+v", fresh)
	}
	if _, art := p.checkout(a, 1); art != nil {
		t.Fatal("a returning group still runs the old re-placed artifact")
	}
	if p.drop(a, g, swapped) {
		t.Fatal("a search claimed on the evicted group swapped its successor")
	}
}
