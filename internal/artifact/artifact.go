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
// result. The leader lands its flight on every exit — a compile that
// panics included, which releases the waiters with an error and leaves
// the fingerprint free to compile again. An optional Store (internal/store
// on disk) sits under the memory tier; the cache keeps the account of
// both in Stats. machine.Compile routes through the process-wide Shared
// cache unless the config names another, which puts every entry point —
// the facade's Run/RunShots/Sample, internal/runner and the CLIs —
// behind it; internal/service calls GetOrCompile itself, under the
// fingerprint it computed at admission.
package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
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
// input surface) changes shape — a field joins or leaves it, or a hashed
// value changes meaning — so stale fingerprints can never collide across
// versions of the code. CHANGES.md records why each version was bumped;
// 14 hashes the resolved backend, which made the fingerprint the whole
// replica-pool key.
const keyVersion = 14

// Key fingerprints a compilation request. Two requests share a key iff
// the compiler is guaranteed to produce identical output for both: the
// circuit ops, the mapping, every topology/latency field of the network
// config (which fixes the BISP windows), and every compiler option are
// all hashed. A nil mapping hashes differently from an explicit identity
// mapping — the artifacts would be identical, but treating them as
// distinct keys costs one extra compile, never a wrong program.
//
// backend is the resolved quantum-state substrate (a machine.BackendKind,
// which this package cannot import). It changes no compiler output, but the
// fingerprint is also internal/service's replica-pool key, and a state-vector
// job must never run on a replica built with another backend.
//
// structural selects the bind-invariant kind: the Param of every symbolic
// op is elided, so all bindings of one skeleton — and the skeleton itself —
// share the fingerprint, and a 1000-point parameter sweep compiles exactly
// once under it. A marker word keeps the two kinds from ever colliding.
func Key(c *circuit.Circuit, mapping []int, net network.Config, opt compiler.Options, backend int, structural bool) Fingerprint {
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
	// The link serialization does not change compiler output — the booked
	// windows are uncontended by design — but it does change runtime
	// behavior, and hashing it, like the backend below, costs at most one
	// redundant compile per variant and never pools incompatible machines.
	wi(int64(net.MeshW))
	wi(int64(net.MeshH))
	wi(int64(net.RouterFanout))
	wi(int64(net.NeighborLatency))
	wi(int64(net.TreeHopLatency))
	wi(int64(net.RouterProc))
	wi(int64(net.Topology))
	wi(int64(net.LinkSerialization))

	// Compiler options.
	wi(int64(opt.Root))
	wi(int64(opt.Controllers))
	wb(opt.InitialBarrier)
	// Placement policy: length-prefixed name bytes.
	ws(opt.Placement)
	wb(opt.Padded)
	// Multi-chip expansion inputs (keyVersion 7).
	wi(int64(opt.Chips))
	wi(int64(opt.EPRLatency))

	wi(int64(backend))

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
// makes a cold process start warm. It is *store.Store's own method set
// (internal/store implements it on disk). Get returns an error for any
// artifact it cannot produce (absent, unreadable, corrupt): the cache
// counts a store miss and falls back to compiling. Implementations must
// be safe for concurrent use.
type Store interface {
	Get(Fingerprint) (*compiler.Compiled, error)
	Put(Fingerprint, *compiler.Compiled) error
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
// GetOrCompile spills every fresh compile to it.
func (c *Cache) SetStore(st Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
}

// Get returns the cached artifact for fp, counting a hit and marking it
// most recently used when found. A memory miss consults the store (when
// attached): a restore counts as a Hit plus a StoreHit — no compile ran.
// A key absent from both tiers counts no Miss — the caller may go on to
// compile through GetOrCompile, which does the miss accounting, so one
// logical request never double-counts.
func (c *Cache) Get(fp Fingerprint) (*compiler.Compiled, bool) {
	c.mu.Lock()
	cp, ok := c.hit(fp)
	st := c.store
	c.mu.Unlock()
	if ok {
		return cp, true
	}
	return c.restore(st, fp)
}

// hit returns fp's resident artifact, counting a hit and marking it most
// recently used. Called with c.mu held.
func (c *Cache) hit(fp Fingerprint) (*compiler.Compiled, bool) {
	el, ok := c.entries[fp]
	if !ok {
		return nil, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).cp, true
}

// restore looks fp up in st (nil: no store, nothing counted). The disk
// I/O runs outside c.mu; a concurrent restore of the same key is harmless
// (put is idempotent, decode is deterministic). A restore counts a Hit
// and a StoreHit and becomes resident; a failure counts a StoreMiss.
func (c *Cache) restore(st Store, fp Fingerprint) (*compiler.Compiled, bool) {
	if st == nil {
		return nil, false
	}
	cp, err := st.Get(fp)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.stats.StoreMisses++
		return nil, false
	}
	c.stats.Hits++
	c.stats.StoreHits++
	c.put(fp, cp)
	return cp, true
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

// errPanicked is what the waiters of a flight whose compile panicked
// receive; the panic itself goes on up the leader's stack.
var errPanicked = errors.New("artifact: compile panicked")

// GetOrCompile returns the artifact for fp, compiling it with compile on
// a miss. Concurrent callers with the same fingerprint are collapsed
// into one compilation: the first caller compiles, the others block and
// share its result (counted as hits — they paid no compile). A compile
// error is propagated to every waiter and nothing is cached. A compile
// that panics releases its waiters with an error, leaves nothing in
// flight, and panics on in the caller, so the next request compiles anew.
func (c *Cache) GetOrCompile(fp Fingerprint, compile func() (*compiler.Compiled, error)) (cp *compiler.Compiled, hit bool, err error) {
	c.mu.Lock()
	if cp, ok := c.hit(fp); ok {
		c.mu.Unlock()
		return cp, true, nil
	}
	if fl, ok := c.inflight[fp]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		<-fl.done
		return fl.cp, true, fl.err
	}
	fl := &flight{done: make(chan struct{}), err: errPanicked}
	c.inflight[fp] = fl
	st := c.store
	c.mu.Unlock()

	if hit = c.lead(fp, fl, st, compile); hit || fl.err != nil || st == nil {
		return fl.cp, hit, fl.err
	}
	// Spill outside the lock, before returning: the leader pays the encode
	// and the file write inline, so a cold request's time includes them
	// (EXPERIMENTS.md measures the share), while the waiters were already
	// released. A spill never fails the request: its error is only
	// counted, and the artifact serves from memory.
	spilled := st.Put(fp, fl.cp) == nil
	c.mu.Lock()
	if spilled {
		c.stats.Spills++
	} else {
		c.stats.SpillErrors++
	}
	c.mu.Unlock()
	return fl.cp, false, nil
}

// lead fills the leader's flight — restored from the store, which is a
// hit and charges no Miss, else compiled — and lands it on every exit: the
// in-flight entry goes, a compiled artifact becomes resident, and the
// waiters are released. The flight's error is preset to errPanicked, so a
// compile that panics lands with it while the panic unwinds past.
func (c *Cache) lead(fp Fingerprint, fl *flight, st Store, compile func() (*compiler.Compiled, error)) (restored bool) {
	defer func() {
		c.mu.Lock()
		delete(c.inflight, fp)
		if fl.err == nil && !restored {
			c.put(fp, fl.cp)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	if fl.cp, restored = c.restore(st, fp); restored {
		fl.err = nil
		return true
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	fl.cp, fl.err = compile()
	return false
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
