// Package artifact is the compile-once layer of the stack: a
// content-addressed cache of compiled programs keyed by everything that
// determines the compiler's output — the circuit, its qubit→controller
// mapping, the fabric geometry/latencies, and the compiler options.
//
// Compilation is deterministic: the same (circuit, mapping, network
// config, options) tuple always lowers to byte-identical per-controller
// binaries and codeword tables, because the BISP windows the compiler
// books against are pure functions of the topology (DESIGN.md §2.3–§2.4).
// That makes the compiled artifact safe to share: internal/runner already
// hands one *compiler.Compiled to W replicas read-only; this package
// extends the sharing across independent submissions, so a service
// replaying the same circuit for many requests compiles exactly once.
//
// The cache is LRU-bounded and safe for concurrent use. GetOrCompile
// deduplicates concurrent compilations of the same fingerprint
// (singleflight): one caller compiles, the rest wait and share the
// result. machine.Compile routes through the process-wide Shared cache
// unless the config names another, which puts every entry point — the
// facade's Run/RunShots/Sample, internal/runner and the CLIs — behind it;
// internal/service calls GetOrCompile itself, under the fingerprint it
// computed at admission.
package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/network"
)

// Fingerprint content-addresses one compiled artifact.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex (the form job APIs expose).
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short is the abbreviated display form (12 hex digits).
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:6]) }

// keyVersion is bumped whenever the encoding below (or the compiler's
// input surface) changes shape, so stale fingerprints can never collide
// across versions of the code. v2: topology kind and contention fields
// joined the network-config section. v3: the placement policy name joined
// the compiler options — the Place pass resolves nil mappings through the
// named policy, so artifacts (and the replica pools keyed on them) from
// different policies must never alias. v4: params are canonicalized (-0.0
// hashes as +0.0 — the programs were always identical), symbolic
// parameter names are hashed per op, and the structural-key variant
// (params elided) joined the encoding, so a whole angle sweep shares one
// skeleton fingerprint. v5: the schedule policy name joined the compiler
// options — the Schedule pass resolves directives through the named
// policy (internal/compiler's schedule registry), so artifacts from
// different scheduling policies must never alias. v6: the Collective
// option joined the compiler options — the collective-aware lowering
// emits different feed-forward distribution code, so artifacts compiled
// with it on and off must never alias. v7: the Chips and EPRLatency
// options joined the compiler options — the multi-chip expansion rewrites
// the circuit and the EPR latency changes emitted waits, so artifacts from
// different chip configurations must never alias (and replica pools keyed
// on the fingerprint stay chip-homogeneous). v8: the AdvanceBooking option
// is gone — Schedule "padded" always named the same thing — and its word
// left the encoding. v9: PipeGuard became a compiler constant (nothing ever
// set another value) and its word left the encoding too.
const keyVersion = 9

// Key fingerprints a compilation request. Two requests share a key iff
// the compiler is guaranteed to produce identical output for both: the
// circuit ops, the mapping, every topology/latency field of the network
// config (which fixes the BISP windows), and every compiler option are
// all hashed. A nil mapping hashes differently from an explicit identity
// mapping — the artifacts would be identical, but treating them as
// distinct keys costs one extra compile, never a wrong program.
//
// structural selects the bind-invariant kind: the Param of every symbolic
// op is elided, so all bindings of one skeleton — and the skeleton itself —
// share the fingerprint, and a 1000-point parameter sweep compiles exactly
// once under it. A marker word keeps the two kinds from ever colliding.
func Key(c *circuit.Circuit, mapping []int, net network.Config, opt compiler.Options, structural bool) Fingerprint {
	// Encode into one buffer and hash once: Key sits on the admission
	// path of every submission, and per-field hasher writes cost more
	// than the SHA itself on op-heavy circuits. ~8 words per op is a
	// comfortable overestimate for typical circuits.
	buf := make([]byte, 0, 64+len(c.Ops)*8*8+len(mapping)*8)
	wi := func(v int64) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	wf := func(v float64) { wi(int64(math.Float64bits(circuit.CanonParam(v)))) }
	wb := func(v bool) {
		if v {
			wi(1)
		} else {
			wi(0)
		}
	}
	ws := func(s string) {
		wi(int64(len(s)))
		buf = append(buf, s...)
	}

	wi(keyVersion)
	wb(structural)

	// Circuit: dimensions plus every op field the compiler reads.
	wi(int64(c.NumQubits))
	wi(int64(c.NumBits))
	wi(int64(len(c.Ops)))
	for _, op := range c.Ops {
		wi(int64(op.Kind))
		wi(int64(len(op.Qubits)))
		for _, q := range op.Qubits {
			wi(int64(q))
		}
		// Symbolic params: the name is structure, the value is not — a
		// structural key elides it so every binding (and the unbound
		// skeleton) lands on the same artifact.
		ws(op.Sym)
		if structural && op.Sym != "" {
			wi(-2)
		} else {
			wf(op.Param)
		}
		wi(int64(op.CBit))
		if op.Cond == nil {
			wi(-1)
		} else {
			wi(int64(len(op.Cond.Bits)))
			for _, b := range op.Cond.Bits {
				wi(int64(b))
			}
			wi(int64(op.Cond.Parity))
		}
	}

	// Mapping: nil (identity) vs explicit are distinct on purpose.
	if mapping == nil {
		wi(-1)
	} else {
		wi(int64(len(mapping)))
		for _, m := range mapping {
			wi(int64(m))
		}
	}

	// Network config: fixes the topology and therefore the sync windows.
	// The contention fields (serialization, ports, queue cap) do not change
	// compiler output — the booked windows are uncontended by design — but
	// they do change runtime behavior, and the fingerprint doubles as the
	// replica-pool key in internal/service; hashing them costs at most one
	// redundant compile per variant and never pools incompatible machines.
	wi(int64(net.MeshW))
	wi(int64(net.MeshH))
	wi(int64(net.RouterFanout))
	wi(int64(net.NeighborLatency))
	wi(int64(net.TreeHopLatency))
	wi(int64(net.RouterProc))
	wi(int64(net.Topology))
	wi(int64(net.LinkSerialization))
	wi(int64(net.RouterPorts))
	wi(int64(net.LinkQueueCap))

	// Compiler options.
	wi(opt.Durations.OneQubit)
	wi(opt.Durations.TwoQubit)
	wi(opt.Durations.Measure)
	wi(int64(opt.MeasLatency))
	wi(int64(opt.Root))
	wi(int64(opt.Controllers))
	wb(opt.InitialBarrier)
	// Placement policy: length-prefixed name bytes. "" and "identity"
	// resolve to the same pass behavior but hash differently — one
	// redundant compile at most, never an aliased artifact.
	wi(int64(len(opt.Placement)))
	buf = append(buf, opt.Placement...)
	// Schedule policy: same length-prefixed scheme, same "" vs "fixed"
	// redundancy tradeoff.
	wi(int64(len(opt.Schedule)))
	buf = append(buf, opt.Schedule...)
	// Collective lowering toggle (keyVersion 6).
	wb(opt.Collective)
	// Multi-chip expansion inputs (keyVersion 7).
	wi(int64(opt.Chips))
	wi(int64(opt.EPRLatency))

	return sha256.Sum256(buf)
}

// Stats is a point-in-time snapshot of cache effectiveness. Hits counts
// artifact reuses — Get finding an entry, or GetOrCompile being served
// without compiling (including callers that joined an in-flight
// compilation of the same key, and artifacts restored from the backing
// store: no compile ran). Misses counts compile attempts: only
// GetOrCompile charges them, and a store restore never does, so Misses
// equals actual compiles and "zero fresh compiles after restart" is
// exactly a Misses delta of zero.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Store-tier counters (all zero when no store is attached). StoreHits
	// are restores from disk — each also counts as a Hit. StoreMisses are
	// store lookups that found nothing. Spills are artifacts persisted
	// after a compile; SpillErrors are persists that failed (the artifact
	// still serves from memory — spilling is strictly best-effort).
	StoreHits   uint64 `json:"store_hits"`
	StoreMisses uint64 `json:"store_misses"`
	Spills      uint64 `json:"spills"`
	SpillErrors uint64 `json:"spill_errors"`
	Size        int    `json:"size"`
	Capacity    int    `json:"capacity"`
}

// Store is a persistence tier under the cache: artifacts spill to it
// after compilation and restore from it on a memory miss, which is what
// makes a cold process start warm. internal/store implements it on disk.
// Load reports false for any artifact it cannot produce (absent,
// unreadable, corrupt) — the cache then falls back to compiling.
// Implementations must be safe for concurrent use.
type Store interface {
	Load(Fingerprint) (*compiler.Compiled, bool)
	Save(Fingerprint, *compiler.Compiled) error
}

// Cache is an LRU-bounded, concurrency-safe map from fingerprint to
// compiled artifact. Cached *compiler.Compiled values are shared and must
// be treated as immutable by every consumer (the same contract
// internal/runner's replicas already obey).
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[Fingerprint]*list.Element
	order    *list.List // front = most recently used
	inflight map[Fingerprint]*flight
	store    Store // optional persistence tier; nil = memory only
	stats    Stats
}

type entry struct {
	fp Fingerprint
	cp *compiler.Compiled
}

type flight struct {
	done chan struct{}
	cp   *compiler.Compiled
	err  error
}

// DefaultCapacity bounds the Shared cache. Compiled artifacts for the
// Fig. 15 suite run tens of KB to a few MB each; 128 of them is far more
// working set than any current workload while staying well under typical
// container memory.
const DefaultCapacity = 128

// Shared is the process-wide artifact cache machine.Compile consults when
// the config names no other.
var Shared = New(DefaultCapacity)

// New returns a cache bounded to capacity entries (capacity < 1 is
// clamped to 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[Fingerprint]*list.Element),
		order:    list.New(),
		inflight: make(map[Fingerprint]*flight),
	}
}

// SetStore attaches (or, with nil, detaches) a persistence tier. With a
// store attached, Get and GetOrCompile restore memory misses from it and
// GetOrCompile spills every fresh compile to it. Clear leaves the store
// attached — a Clear models a process restart, where memory is gone but
// disk persists.
func (c *Cache) SetStore(st Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
}

// Get returns the cached artifact for fp, counting a hit and marking it
// most recently used when found. A memory miss consults the store (when
// attached): a restore counts as a Hit plus a StoreHit — no compile ran.
// A key absent from both tiers counts nothing — the caller may go on to
// compile through GetOrCompile, which does the miss accounting, so one
// logical request never double-counts.
func (c *Cache) Get(fp Fingerprint) (*compiler.Compiled, bool) {
	c.mu.Lock()
	el, ok := c.entries[fp]
	if ok {
		c.stats.Hits++
		c.order.MoveToFront(el)
		cp := el.Value.(*entry).cp
		c.mu.Unlock()
		return cp, true
	}
	st := c.store
	c.mu.Unlock()
	if st == nil {
		return nil, false
	}
	// Disk I/O happens outside the lock; a concurrent restore of the same
	// key is harmless (put is idempotent, decode is deterministic).
	cp, ok := st.Load(fp)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.stats.StoreMisses++
		return nil, false
	}
	c.stats.Hits++
	c.stats.StoreHits++
	c.put(fp, cp)
	return cp, true
}

// Put inserts (or refreshes) an artifact, evicting the least recently
// used entry when over capacity.
func (c *Cache) Put(fp Fingerprint, cp *compiler.Compiled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(fp, cp)
}

// put inserts with c.mu held.
func (c *Cache) put(fp Fingerprint, cp *compiler.Compiled) {
	if el, ok := c.entries[fp]; ok {
		el.Value.(*entry).cp = cp
		c.order.MoveToFront(el)
		return
	}
	c.entries[fp] = c.order.PushFront(&entry{fp: fp, cp: cp})
	c.evict()
}

// evict drops least recently used entries down to capacity, with c.mu held.
func (c *Cache) evict() {
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).fp)
		c.stats.Evictions++
	}
}

// GetOrCompile returns the artifact for fp, compiling it with compile on
// a miss. Concurrent callers with the same fingerprint are collapsed
// into one compilation: the first caller compiles, the others block and
// share its result (counted as hits — they paid no compile). A compile
// error is propagated to every waiter and nothing is cached.
func (c *Cache) GetOrCompile(fp Fingerprint, compile func() (*compiler.Compiled, error)) (cp *compiler.Compiled, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[fp]; ok {
		c.stats.Hits++
		c.order.MoveToFront(el)
		cp = el.Value.(*entry).cp
		c.mu.Unlock()
		return cp, true, nil
	}
	if fl, ok := c.inflight[fp]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		<-fl.done
		return fl.cp, true, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[fp] = fl
	st := c.store
	c.mu.Unlock()

	// Leader path. Before paying a compile, try the persistence tier: a
	// restore is a hit (no compile ran), charges no Miss, and the waiters
	// that joined the flight share it exactly as they would a compile.
	if st != nil {
		if cp, ok := st.Load(fp); ok {
			fl.cp = cp
			c.mu.Lock()
			delete(c.inflight, fp)
			c.stats.Hits++
			c.stats.StoreHits++
			c.put(fp, cp)
			c.mu.Unlock()
			close(fl.done)
			return cp, true, nil
		}
	}

	c.mu.Lock()
	if st != nil {
		c.stats.StoreMisses++
	}
	c.stats.Misses++
	c.mu.Unlock()

	fl.cp, fl.err = compile()

	c.mu.Lock()
	delete(c.inflight, fp)
	if fl.err == nil {
		c.put(fp, fl.cp)
	}
	c.mu.Unlock()
	close(fl.done)

	// Spill outside the lock, before returning: the leader pays the encode
	// and the file write inline, so a cold request's time includes them
	// (EXPERIMENTS.md measures the share), while the waiters above were
	// already released. A spill never fails the request: its error is only
	// counted, and the artifact serves from memory.
	if fl.err == nil && st != nil {
		if err := st.Save(fp, fl.cp); err != nil {
			c.mu.Lock()
			c.stats.SpillErrors++
			c.mu.Unlock()
		} else {
			c.mu.Lock()
			c.stats.Spills++
			c.mu.Unlock()
		}
	}
	return fl.cp, false, fl.err
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.order.Len()
	s.Capacity = c.capacity
	return s
}

// Resize rebounds the cache, evicting LRU entries if it shrank below the
// current population. Counters are preserved.
func (c *Cache) Resize(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
	c.evict()
}

// Clear drops every entry and zeroes the counters (tests and benchmarks
// use it to measure cold-path behavior on the Shared cache). An attached
// store stays attached: Clear models a process restart — memory is gone,
// disk persists — which is precisely the transition the restart-warm
// contract is about.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Fingerprint]*list.Element)
	c.order = list.New()
	c.stats = Stats{}
}
