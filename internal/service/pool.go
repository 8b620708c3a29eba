package service

import (
	"slices"
	"sync"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
	"dhisq/internal/sim"
)

// poolKey identifies machines that are interchangeable for job execution:
// same compiled artifact AND same runtime configuration. The artifact
// fingerprint only covers compile-relevant inputs; two jobs can share
// binaries yet need different machines, so what a machine is built with
// rides along, each field for the behaviour named on it. Seed, Artifacts
// and LogEvents are in neither: TestPoolKeyCoversRuntimeConfig says why.
type poolKey struct {
	// fp: the program the replicas are loaded with, every compile option in it.
	fp artifact.Fingerprint
	// backend (resolved, never BackendAuto): a state-vector job on a seeded
	// replica would draw its outcomes from the wrong simulator.
	backend machine.BackendKind
	// deadline: one shot fails under a short cycle bound and finishes under
	// a long one (TestFailedRunUnwinds), and the bound is the replica's.
	deadline sim.Time
}

// poolKeyOf is a resolved submission's pool key (a.Spec.Cfg is normalized:
// its backend is the one the replicas are built with).
func poolKeyOf(a Admission) poolKey {
	cfg := a.Spec.Cfg
	return poolKey{fp: a.Fingerprint, backend: cfg.Backend, deadline: cfg.Deadline}
}

// replicaPool keeps loaded machines warm, grouped by pool key — the
// "reusable compiled program" half of the package's split — bounded by a
// global replica budget (which bounds the groups it knows too: one may be
// empty, its replicas checked out) with LRU group eviction. Over budget,
// groups first give up what they hold above floor, least recently used
// first, so replicas lent to a lone job never cost another program its
// warm machines. Checkout removes machines from the pool (a machine is
// never shared by two running jobs); checkin returns them.
type replicaPool struct {
	mu     sync.Mutex
	budget int
	floor  int                            // a group's replicas kept before any group is evicted
	groups map[poolKey][]*machine.Machine // pooled (not checked out); may be empty
	order  []poolKey                      // front = most recently used
	total  int
}

func newReplicaPool(budget, floor int) *replicaPool {
	return &replicaPool{budget: budget, floor: floor, groups: make(map[poolKey][]*machine.Machine)}
}

func (p *replicaPool) touch(pk poolKey) {
	if i := slices.Index(p.order, pk); i >= 0 {
		p.order = slices.Delete(p.order, i, i+1)
	}
	p.order = slices.Insert(p.order, 0, pk)
}

// trim discards pk's last n pooled machines (nil-ed: the backing array
// stays).
func (p *replicaPool) trim(pk poolKey, n int) {
	g := p.groups[pk]
	keep := len(g) - n
	clear(g[keep:])
	p.groups[pk] = g[:keep]
	p.total -= n
}

// checkout takes up to want machines pooled for pk.
func (p *replicaPool) checkout(pk poolKey, want int) []*machine.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.groups[pk]
	n := min(want, len(g))
	if n == 0 {
		return nil
	}
	// Copy out: the truncated group keeps its backing array, so handing
	// the caller a sub-slice would let a later checkin append into the
	// very machines the caller is still running on.
	out := make([]*machine.Machine, n)
	copy(out, g[len(g)-n:])
	p.trim(pk, n)
	p.touch(pk)
	return out
}

// checkin returns machines to pk's group. While the global budget is
// exceeded it trims groups down to floor, then evicts whole groups, least
// recently used first both times.
func (p *replicaPool) checkin(pk poolKey, machines []*machine.Machine) {
	if len(machines) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.groups[pk] = append(p.groups[pk], machines...)
	p.total += len(machines)
	p.touch(pk)
	for i := len(p.order) - 1; i >= 0 && p.total > p.budget; i-- {
		if surplus := len(p.groups[p.order[i]]) - p.floor; surplus > 0 {
			p.trim(p.order[i], min(p.total-p.budget, surplus))
		}
	}
	for p.total > p.budget || len(p.order) > p.budget {
		victim := p.order[len(p.order)-1]
		if victim == pk && len(p.order) == 1 {
			// Only the active group remains: trim it instead.
			p.trim(pk, min(p.total-p.budget, len(p.groups[pk])))
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
