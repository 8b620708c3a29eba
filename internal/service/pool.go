package service

import (
	"slices"
	"sync"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
)

// replicaPool keeps loaded machines warm, grouped by fingerprint — the
// "reusable compiled program" half of the package's split. A fingerprint
// names the program and every setting a replica is built with, so jobs that
// share one share machines. The pool is bounded by a global replica budget
// (which bounds the groups it knows too: one may be empty, its replicas
// checked out) with LRU group eviction. Over budget, groups first give up
// what they hold above floor, least recently used first, so replicas lent
// to a lone job never cost another program its warm machines. Checkout removes machines from the pool (a machine is
// never shared by two running jobs); checkin returns them.
type replicaPool struct {
	mu     sync.Mutex
	budget int
	floor  int                                         // a group's replicas kept before any group is evicted
	groups map[artifact.Fingerprint][]*machine.Machine // pooled (not checked out); may be empty
	order  []artifact.Fingerprint                      // front = most recently used
	total  int
}

func newReplicaPool(budget, floor int) *replicaPool {
	return &replicaPool{budget: budget, floor: floor, groups: make(map[artifact.Fingerprint][]*machine.Machine)}
}

func (p *replicaPool) touch(fp artifact.Fingerprint) {
	if i := slices.Index(p.order, fp); i >= 0 {
		p.order = slices.Delete(p.order, i, i+1)
	}
	p.order = slices.Insert(p.order, 0, fp)
}

// trim discards fp's last n pooled machines (nil-ed: the backing array
// stays).
func (p *replicaPool) trim(fp artifact.Fingerprint, n int) {
	g := p.groups[fp]
	keep := len(g) - n
	clear(g[keep:])
	p.groups[fp] = g[:keep]
	p.total -= n
}

// checkout takes up to want machines pooled for fp.
func (p *replicaPool) checkout(fp artifact.Fingerprint, want int) []*machine.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.groups[fp]
	n := min(want, len(g))
	if n == 0 {
		return nil
	}
	// Copy out: the truncated group keeps its backing array, so handing
	// the caller a sub-slice would let a later checkin append into the
	// very machines the caller is still running on.
	out := make([]*machine.Machine, n)
	copy(out, g[len(g)-n:])
	p.trim(fp, n)
	p.touch(fp)
	return out
}

// checkin returns machines to fp's group. While the global budget is
// exceeded it trims groups down to floor, then evicts whole groups, least
// recently used first both times.
func (p *replicaPool) checkin(fp artifact.Fingerprint, machines []*machine.Machine) {
	if len(machines) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.groups[fp] = append(p.groups[fp], machines...)
	p.total += len(machines)
	p.touch(fp)
	for i := len(p.order) - 1; i >= 0 && p.total > p.budget; i-- {
		if surplus := len(p.groups[p.order[i]]) - p.floor; surplus > 0 {
			p.trim(p.order[i], min(p.total-p.budget, surplus))
		}
	}
	for p.total > p.budget || len(p.order) > p.budget {
		victim := p.order[len(p.order)-1]
		if victim == fp && len(p.order) == 1 {
			// Only the active group remains: trim it instead.
			p.trim(fp, min(p.total-p.budget, len(p.groups[fp])))
			break
		}
		p.total -= len(p.groups[victim])
		delete(p.groups, victim)
		p.order = p.order[:len(p.order)-1]
	}
}

func (p *replicaPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}
