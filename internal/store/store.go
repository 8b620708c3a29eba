// Package store is the persistence layer under the compiled-artifact
// cache: a content-addressed on-disk store of compiler.Compiled values,
// keyed by the same fingerprints internal/artifact computes (for
// parameterized circuits, the bind-invariant structural key — so one
// spilled skeleton warms every binding of the family).
//
// The store exists so that serving processes survive restarts warm: a
// dhisq-serve daemon spills every artifact it compiles, and a cold
// process start restores them instead of recompiling — the crash/restart
// contract is that a repeat job after restart performs zero fresh
// compiles and returns byte-identical histograms (TestCrashRestartStoreWarm
// in cmd/dhisq-serve and CI's serve-cluster-smoke hold it).
//
// On-disk format (one file per fingerprint, named <64-hex>.art):
//
//	magic "DHSQART\x00" | u32 version | payload | sha256(all preceding bytes)
//
// The payload is a fixed little-endian encoding of every Compiled field
// (programs, symbol maps sorted by name, codeword tables, bit owners,
// stats, mapping, param slots, a static program's measured-bit lists, the
// public-bit count). TestEncodeCoversEveryField fails when Compiled or
// compiler.Stats gains a field this encoding does not carry.
// Decode verifies the trailing checksum before touching the payload and
// rejects unknown versions, so a truncated, corrupted, or version-bumped
// file is an error — never a panic, never a silently wrong artifact
// (FuzzStoreDecode enforces this). Writes are atomic (temp file + rename
// into place), so a crash mid-spill leaves either the old bytes or
// nothing. The store is size-bounded: Put evicts least-recently-written
// files once the byte budget is exceeded.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dhisq/internal/artifact"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/isa"
)

// Version is bumped whenever the payload encoding changes shape; Decode
// rejects every other version, so a store directory can never feed a
// differently-shaped artifact into a newer process.
const Version = 3

var magic = [8]byte{'D', 'H', 'S', 'Q', 'A', 'R', 'T', 0}

// ErrNotFound reports a fingerprint with no stored artifact.
var ErrNotFound = errors.New("store: artifact not found")

// ErrCorrupt wraps every decode failure: bad magic, unknown version,
// checksum mismatch, or a truncated/overlong payload.
var ErrCorrupt = errors.New("store: corrupt artifact")

const (
	ext         = ".art"
	headerLen   = 8 + 4       // magic + version
	checksumLen = sha256.Size // trailing integrity hash
	minFileLen  = headerLen + checksumLen
	// DefaultMaxBytes bounds a store at 512 MiB — thousands of artifacts
	// for the current workloads, while a runaway workload cannot fill the
	// disk of a long-lived daemon.
	DefaultMaxBytes = 512 << 20
)

// Stats is a point-in-time snapshot of store effectiveness.
type Stats struct {
	// Restores counts Get calls served from disk; Spills counts Put
	// writes that landed; Evictions counts files the byte budget removed;
	// CorruptDropped counts files Get found undecodable and deleted.
	Restores       uint64 `json:"restores"`
	Spills         uint64 `json:"spills"`
	Evictions      uint64 `json:"evictions"`
	CorruptDropped uint64 `json:"corrupt_dropped"`
	Files          int    `json:"files"`
	Bytes          int64  `json:"bytes"`
	MaxBytes       int64  `json:"max_bytes"`
}

type fileInfo struct {
	size int64
	seq  uint64 // write recency: larger = newer (load order at Open)
}

// Store is a size-bounded, concurrency-safe on-disk artifact store. It
// implements artifact.Store, so it plugs directly under the in-memory
// cache via artifact.Cache.SetStore.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[artifact.Fingerprint]fileInfo
	bytes int64
	seq   uint64
	stats Stats
}

// Open scans dir (creating it if needed) and returns a store bounded to
// maxBytes on disk (<= 0 picks DefaultMaxBytes). Existing files are
// indexed by name; anything that is not a well-formed <64-hex>.art name
// is ignored — decode validation happens at Get, not Open, so a corrupt
// file costs nothing until someone asks for it.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, index: make(map[artifact.Fingerprint]fileInfo)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Index in modification-time order so eviction recency survives the
	// restart: the oldest file on disk is the first GC victim.
	type onDisk struct {
		fp    artifact.Fingerprint
		size  int64
		mtime int64
		name  string
	}
	var found []onDisk
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ext) {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, ext))
		if err != nil || len(raw) != sha256.Size {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		var fp artifact.Fingerprint
		copy(fp[:], raw)
		found = append(found, onDisk{fp: fp, size: info.Size(), mtime: info.ModTime().UnixNano(), name: name})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].name < found[j].name
	})
	for _, f := range found {
		s.seq++
		s.index[f.fp] = fileInfo{size: f.size, seq: s.seq}
		s.bytes += f.size
	}
	return s, nil
}

// Dir returns the directory backing the store.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(fp artifact.Fingerprint) string {
	return filepath.Join(s.dir, fp.String()+ext)
}

// Put encodes and atomically writes the artifact, then evicts the
// least-recently-written other files while the store exceeds its byte
// budget (the just-written artifact is never its own victim, so a single
// oversized artifact still persists).
func (s *Store) Put(fp artifact.Fingerprint, cp *compiler.Compiled) error {
	data := Encode(cp)
	tmp, err := os.CreateTemp(s.dir, "spill-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmpName, s.path(fp)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if old, ok := s.index[fp]; ok {
		s.bytes -= old.size
	}
	s.seq++
	s.index[fp] = fileInfo{size: int64(len(data)), seq: s.seq}
	s.bytes += int64(len(data))
	s.stats.Spills++
	s.gc(fp)
	return nil
}

// gc evicts least-recently-written files until the byte budget holds,
// sparing keep. Called with s.mu held.
func (s *Store) gc(keep artifact.Fingerprint) {
	for s.bytes > s.maxBytes && len(s.index) > 1 {
		var victim artifact.Fingerprint
		var oldest uint64 = math.MaxUint64
		for fp, fi := range s.index {
			if fp == keep {
				continue
			}
			if fi.seq < oldest {
				oldest = fi.seq
				victim = fp
			}
		}
		if oldest == math.MaxUint64 {
			return
		}
		s.removeLocked(victim)
		s.stats.Evictions++
	}
}

// removeLocked drops one file and its index entry. Called with s.mu held.
func (s *Store) removeLocked(fp artifact.Fingerprint) {
	if fi, ok := s.index[fp]; ok {
		s.bytes -= fi.size
		delete(s.index, fp)
	}
	os.Remove(s.path(fp))
}

// Get reads and decodes the stored artifact. A missing fingerprint is
// ErrNotFound; an undecodable file is removed from the store (it can
// never become valid — content addressing means a rewrite of the same
// fingerprint writes the same bytes) and reported as ErrCorrupt.
func (s *Store) Get(fp artifact.Fingerprint) (*compiler.Compiled, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[fp]; !ok {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(s.path(fp))
	if err != nil {
		// Index said present, disk disagrees: drop the entry.
		s.removeLocked(fp)
		return nil, ErrNotFound
	}
	cp, err := Decode(data)
	if err != nil {
		s.removeLocked(fp)
		s.stats.CorruptDropped++
		return nil, err
	}
	s.stats.Restores++
	return cp, nil
}

// Load implements artifact.Store: a boolean Get for the cache's restore
// path. Every failure mode — absent, unreadable, corrupt — is a plain
// miss; the cache then recompiles and respills.
func (s *Store) Load(fp artifact.Fingerprint) (*compiler.Compiled, bool) {
	cp, err := s.Get(fp)
	return cp, err == nil
}

// Save implements artifact.Store.
func (s *Store) Save(fp artifact.Fingerprint, cp *compiler.Compiled) error {
	return s.Put(fp, cp)
}

// Len returns the number of stored artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Files = len(s.index)
	st.Bytes = s.bytes
	st.MaxBytes = s.maxBytes
	return st
}

// ---------------------------------------------------------------------------
// Encoding

// enc accumulates the little-endian payload.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) i64(v int64)   { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *enc) f64(v float64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.i64(int64(len(s)))
	e.buf = append(e.buf, s...)
}

// length writes a slice/map length with nil preserved as -1: decode must
// reconstruct the artifact exactly — reflect.DeepEqual against a fresh
// compile is the restart-warm test's bar, and it distinguishes a nil
// slice from an empty one.
func (e *enc) length(n int, isNil bool) {
	if isNil {
		e.i64(-1)
		return
	}
	e.i64(int64(n))
}

// Encode renders the artifact in the store's versioned, checksummed wire
// form. The encoding is canonical — map fields are written in sorted
// order — so encoding the same artifact twice yields identical bytes
// (content addressing depends on it: a re-spill of a fingerprint
// rewrites the same file). The buffer is sized once, checksum included.
func Encode(cp *compiler.Compiled) []byte {
	e := &enc{buf: make([]byte, 0, encodedLen(cp))}
	e.buf = append(e.buf, magic[:]...)
	e.u32(Version)

	e.length(len(cp.Programs), cp.Programs == nil)
	for _, p := range cp.Programs {
		e.length(len(p.Instrs), p.Instrs == nil)
		for _, in := range p.Instrs {
			e.u8(uint8(in.Op))
			e.u8(in.Rd)
			e.u8(in.Rs1)
			e.u8(in.Rs2)
			e.u32(uint32(in.Imm))
		}
		names := make([]string, 0, len(p.Symbols))
		for n := range p.Symbols {
			names = append(names, n)
		}
		sort.Strings(names)
		e.length(len(names), p.Symbols == nil)
		for _, n := range names {
			e.str(n)
			e.i64(int64(p.Symbols[n]))
		}
	}

	e.length(len(cp.Tables), cp.Tables == nil)
	for _, table := range cp.Tables {
		e.length(len(table), table == nil)
		for _, t := range table {
			e.u8(uint8(t.Role))
			e.u8(uint8(t.Kind))
			e.f64(t.Param)
			e.i64(int64(t.Qubit))
			e.i64(int64(t.Partner))
			e.i64(int64(t.Channel))
			e.str(t.Sym)
		}
	}

	e.length(len(cp.BitOwner), cp.BitOwner == nil)
	for _, o := range cp.BitOwner {
		e.i64(int64(o))
	}
	e.i64(int64(cp.MemBytes))

	e.i64(int64(cp.Stats.Instructions))
	e.i64(int64(cp.Stats.NearbySyncs))
	e.i64(int64(cp.Stats.RegionSyncs))
	e.i64(int64(cp.Stats.Sends))
	e.i64(int64(cp.Stats.Recvs))
	e.i64(int64(cp.Stats.TableEntries))

	e.length(len(cp.Mapping), cp.Mapping == nil)
	for _, m := range cp.Mapping {
		e.i64(int64(m))
	}

	e.length(len(cp.ParamSlots), cp.ParamSlots == nil)
	for _, ps := range cp.ParamSlots {
		e.i64(int64(ps.Ctrl))
		e.i64(int64(ps.Index))
		e.str(ps.Sym)
	}

	e.length(len(cp.MeasBits), cp.MeasBits == nil)
	for _, bits := range cp.MeasBits {
		e.length(len(bits), bits == nil)
		for _, b := range bits {
			e.i64(int64(b))
		}
	}

	e.i64(int64(cp.PublicBits))
	e.i64(int64(cp.Stats.RemoteGates))

	sum := sha256.Sum256(e.buf)
	return append(e.buf, sum[:]...)
}

// encodedLen is len(Encode(cp)): the header, every field at the width
// Encode writes it, and the checksum.
func encodedLen(cp *compiler.Compiled) int {
	n := headerLen + 8 // + the program count
	for _, p := range cp.Programs {
		n += 8 + 8*len(p.Instrs) + 8 // counts, and 8 bytes an instruction
		for name := range p.Symbols {
			n += 8 + len(name) + 8
		}
	}
	n += 8
	for _, table := range cp.Tables {
		n += 8
		for _, t := range table {
			n += 2 + 8*4 + 8 + len(t.Sym) // role, kind, four words, the name
		}
	}
	n += 8 + 8*len(cp.BitOwner) + 8 + 6*8 // bit owners, MemBytes, six Stats
	n += 8 + 8*len(cp.Mapping)
	n += 8
	for _, ps := range cp.ParamSlots {
		n += 3*8 + len(ps.Sym)
	}
	n += 8
	for _, bits := range cp.MeasBits {
		n += 8 + 8*len(bits)
	}
	return n + 2*8 + checksumLen // PublicBits, Stats.RemoteGates
}

// dec is a bounds-checked payload reader: every read reports truncation
// as an error instead of slicing past the end, which is what keeps
// FuzzStoreDecode panic-free by construction.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, d.off)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(uint64(d.i64())) }

func (d *dec) str() string {
	n := d.i64()
	if d.err != nil {
		return ""
	}
	if n < 0 || d.off+int(n) > len(d.buf) {
		d.fail()
		return ""
	}
	v := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return v
}

// count reads a length prefix (-1 = the nil slice/map, per enc.length)
// and validates it against the bytes that could possibly remain at
// minBytes per element, so a forged count can never trigger a huge
// allocation.
func (d *dec) count(minBytes int) int {
	n := d.i64()
	if d.err != nil {
		return -1
	}
	if n == -1 {
		return -1
	}
	if n < 0 || int(n) > (len(d.buf)-d.off)/minBytes+1 {
		d.fail()
		return -1
	}
	return int(n)
}

// Decode parses the wire form back into an artifact. The trailing
// checksum is verified before any field is parsed; a mismatch, an
// unknown version, bad magic, truncation, or trailing garbage all return
// an error wrapping ErrCorrupt. A successful decode is structurally
// identical (reflect.DeepEqual) to the encoded artifact.
func Decode(data []byte) (*compiler.Compiled, error) {
	if len(data) < minFileLen {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrCorrupt, len(data), minFileLen)
	}
	body, tail := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if string(body[:8]) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(body[8:12]); v != Version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrCorrupt, v, Version)
	}

	d := &dec{buf: body, off: headerLen}
	cp := &compiler.Compiled{}

	nProg := d.count(9) // per program: instr count + symbol count minimum
	if nProg >= 0 {
		cp.Programs = make([]*isa.Program, nProg)
	}
	for i := 0; i < nProg && d.err == nil; i++ {
		p := &isa.Program{}
		nIns := d.count(8)
		if nIns >= 0 {
			p.Instrs = make([]isa.Instr, nIns)
		}
		for k := 0; k < nIns && d.err == nil; k++ {
			p.Instrs[k] = isa.Instr{
				Op: isa.Op(d.u8()), Rd: d.u8(), Rs1: d.u8(), Rs2: d.u8(),
				Imm: int32(d.u32()),
			}
		}
		nSym := d.count(16)
		if nSym >= 0 {
			p.Symbols = make(map[string]int, nSym)
		}
		for k := 0; k < nSym && d.err == nil; k++ {
			name := d.str()
			p.Symbols[name] = int(d.i64())
		}
		cp.Programs[i] = p
	}

	nTables := d.count(8)
	if nTables >= 0 {
		cp.Tables = make([][]chip.TableEntry, nTables)
	}
	for i := 0; i < nTables && d.err == nil; i++ {
		nEnt := d.count(2 + 8*4 + 8)
		if nEnt >= 0 {
			cp.Tables[i] = make([]chip.TableEntry, nEnt)
		}
		for k := 0; k < nEnt && d.err == nil; k++ {
			cp.Tables[i][k] = chip.TableEntry{
				Role: chip.Role(d.u8()), Kind: circuit.Kind(d.u8()),
				Param: d.f64(), Qubit: int(d.i64()),
				Partner: int(d.i64()), Channel: int(d.i64()), Sym: d.str(),
			}
		}
	}

	nBits := d.count(8)
	if nBits >= 0 {
		cp.BitOwner = make([]int, nBits)
	}
	for i := 0; i < nBits && d.err == nil; i++ {
		cp.BitOwner[i] = int(d.i64())
	}
	cp.MemBytes = int(d.i64())

	cp.Stats.Instructions = int(d.i64())
	cp.Stats.NearbySyncs = int(d.i64())
	cp.Stats.RegionSyncs = int(d.i64())
	cp.Stats.Sends = int(d.i64())
	cp.Stats.Recvs = int(d.i64())
	cp.Stats.TableEntries = int(d.i64())

	nMap := d.count(8)
	if nMap >= 0 {
		cp.Mapping = make([]int, nMap)
	}
	for i := 0; i < nMap && d.err == nil; i++ {
		cp.Mapping[i] = int(d.i64())
	}

	nSlots := d.count(24)
	if nSlots >= 0 {
		cp.ParamSlots = make([]compiler.ParamSlot, nSlots)
	}
	for i := 0; i < nSlots && d.err == nil; i++ {
		cp.ParamSlots[i] = compiler.ParamSlot{
			Ctrl: int(d.i64()), Index: int(d.i64()), Sym: d.str(),
		}
	}

	nMeas := d.count(8)
	if nMeas >= 0 {
		cp.MeasBits = make([][]int, nMeas)
	}
	for i := 0; i < nMeas && d.err == nil; i++ {
		nb := d.count(8)
		if nb >= 0 {
			cp.MeasBits[i] = make([]int, nb)
		}
		for k := 0; k < nb && d.err == nil; k++ {
			cp.MeasBits[i][k] = int(d.i64())
		}
	}

	cp.PublicBits = int(d.i64())
	cp.Stats.RemoteGates = int(d.i64())

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return cp, nil
}
