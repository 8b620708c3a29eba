package service

import (
	"slices"
	"sync"

	"dhisq/internal/artifact"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/runner"
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
	// collective is the resolved Config.Collective schedule name. The
	// schedule is runtime configuration — every schedule shares one
	// compiled artifact (keyVersion 6 hashes only the on/off toggle) — but
	// a pooled machine is built with one Cfg, so "ring" and "tree" jobs
	// must not trade replicas.
	collective string
}

// poolKeyOf is a resolved submission's pool key (a.Spec.Cfg is normalized:
// its backend is the one the replicas are built with).
func poolKeyOf(a Admission) poolKey {
	cfg := a.Spec.Cfg
	return poolKey{fp: a.Fingerprint, backend: cfg.Backend, deadline: cfg.Deadline, collective: cfg.Collective}
}

// group is everything the service keeps per poolKey — the "reusable compiled
// program" half of the package's split: the warm replicas and, when
// Config.ReplaceStallThreshold is set, the congestion its jobs accumulated
// and the artifact a re-placement swapped in. Evicting the group forgets all
// of it at once; one that comes back starts over, which is what LRU means.
type group struct {
	machines []*machine.Machine      // pooled (not checked out); may be empty
	net      network.CongestionStats // merged until the re-place claim
	replaced bool                    // re-place claimed (one-shot)
	artifact *compiler.Compiled      // re-placed artifact (nil until the swap)
}

// replicaPool keeps loaded machines warm, grouped by pool key, bounded by a
// global replica budget (which bounds the groups it knows too: one may be
// empty, its replicas checked out or dropped) with LRU group eviction.
// Checkout removes machines from the pool (a machine is never shared by two
// running jobs); checkin returns them.
type replicaPool struct {
	mu     sync.Mutex
	budget int
	groups map[poolKey]*group
	order  []poolKey // front = most recently used
	total  int
}

func newReplicaPool(budget int) *replicaPool {
	return &replicaPool{budget: budget, groups: make(map[poolKey]*group)}
}

func (p *replicaPool) touch(pk poolKey) {
	if i := slices.Index(p.order, pk); i >= 0 {
		p.order = slices.Delete(p.order, i, i+1)
	}
	p.order = slices.Insert(p.order, 0, pk)
}

// trim discards g's last n pooled machines (nil-ed: the backing array stays).
func (p *replicaPool) trim(g *group, n int) {
	keep := len(g.machines) - n
	clear(g.machines[keep:])
	g.machines = g.machines[:keep]
	p.total -= n
}

// checkout takes up to want machines pooled for pk, and reports the artifact
// a re-placement swapped in for the group, which its jobs run instead of what
// the cache holds under their fingerprint (nil when there was none).
func (p *replicaPool) checkout(pk poolKey, want int) ([]*machine.Machine, *compiler.Compiled) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.groups[pk]
	if g == nil {
		return nil, nil
	}
	n := min(want, len(g.machines))
	if n == 0 {
		return nil, g.artifact
	}
	// Copy out: the truncated group keeps its backing array, so handing
	// the caller a sub-slice would let a later checkin append into the
	// very machines the caller is still running on.
	out := make([]*machine.Machine, n)
	copy(out, g.machines[len(g.machines)-n:])
	p.trim(g, n)
	p.touch(pk)
	return out, g.artifact
}

// checkin returns machines to pk's group, evicting least recently used
// groups — replicas and re-place state together — while the global budget
// is exceeded.
func (p *replicaPool) checkin(pk poolKey, machines []*machine.Machine) {
	if len(machines) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.groups[pk]
	if g == nil {
		g = &group{}
		p.groups[pk] = g
	}
	g.machines = append(g.machines, machines...)
	p.total += len(machines)
	p.touch(pk)
	for p.total > p.budget || len(p.order) > p.budget {
		victim := p.order[len(p.order)-1]
		if victim == pk && len(p.order) == 1 {
			// Only the active group remains: trim it instead.
			p.trim(g, min(p.total-p.budget, len(g.machines)))
			break
		}
		p.total -= len(p.groups[victim].machines)
		delete(p.groups, victim)
		p.order = p.order[:len(p.order)-1]
	}
}

// claim merges a finished job's congestion digest into pk's group and
// reports the group when this call takes it across threshold: the caller
// then owns the group's one re-placement, and g.net, which takes nothing
// further, is its input. A group evicted since the job checked in has
// nothing to merge into.
func (p *replicaPool) claim(pk poolKey, net network.CongestionStats, threshold uint64) *group {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.groups[pk]
	if g == nil || g.replaced {
		return nil
	}
	g.net = g.net.Merge(net)
	if uint64(g.net.TotalStall()) < threshold {
		return nil
	}
	g.replaced = true
	return g
}

// drop completes g's re-placement: its pooled replicas are loaded with the
// artifact art supersedes — running them would mean running the old
// placement — so they go, and the group's next job rebuilds from art under
// the unchanged pool key (a sweep family keeps its bind cache and its
// batching). The group keeps its place in the LRU order, so it is still
// evicted in its turn; false means it was, during the search.
func (p *replicaPool) drop(pk poolKey, g *group, art *compiler.Compiled) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.groups[pk] != g {
		return false
	}
	g.artifact = art
	p.trim(g, len(g.machines))
	return true
}

func (p *replicaPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// maybeReplace merges a successful job's congestion digest into its pool
// group and, once the group's merged stall crosses the configured
// threshold, re-places it: search for a measurably better mapping
// (machine.RePlace), recompile under it, and swap the group's replicas. Runs
// on the worker goroutine outside every lock — the search compiles and
// probes.
func (s *Service) maybeReplace(spec runner.Spec, p plan, prior []int, net network.CongestionStats) {
	g := s.pool.claim(p.pk, net, s.cfg.ReplaceStallThreshold)
	if g == nil {
		return
	}
	cp, err := rePlace(spec, p, prior, g.net)
	if err != nil || cp == nil {
		return // the search kept the incumbent (or failed): nothing to swap
	}
	if s.pool.drop(p.pk, g, cp) {
		s.mu.Lock()
		s.stats.Replacements++
		s.mu.Unlock()
	}
}

// rePlace computes the re-placed artifact for a pool group: probe-search a
// mapping with lower measured fabric stall than prior's (the mapping the
// group's last job ran with) under the accumulated feedback, then compile
// the job's circuit (the unbound skeleton, for bind jobs) with it. Returns
// nil when the search kept the incumbent mapping. The re-placed artifact
// caches under its own fingerprint — the original entry is never
// overwritten, so the content-addressed cache stays honest.
func rePlace(spec runner.Spec, p plan, prior []int, net network.CongestionStats) (*compiler.Compiled, error) {
	prior = append([]int(nil), prior...) // the job's status shares the slice; nil stays nil (= identity)
	probeCirc := spec.Circuit
	if first := p.points[0]; first != nil {
		// Probes need a runnable circuit; the first binding of the family
		// is the deterministic stand-in for its traffic.
		bound, err := probeCirc.Bind(first)
		if err != nil {
			return nil, err
		}
		probeCirc = bound
	}
	newMap, _, err := machine.RePlace(probeCirc, spec.Cfg, prior, net)
	if err != nil {
		return nil, err
	}
	if sameMapping(newMap, prior) {
		return nil, nil
	}
	return machine.Compile(spec.Circuit, newMap, spec.Cfg, p.structural)
}

// sameMapping compares a mapping against a prior one, treating a nil
// prior as the identity.
func sameMapping(m, prior []int) bool {
	if prior != nil {
		return slices.Equal(m, prior)
	}
	for q, c := range m {
		if c != q {
			return false
		}
	}
	return true
}
