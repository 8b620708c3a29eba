package store_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/isa"
	"dhisq/internal/machine"
	"dhisq/internal/store"
	"dhisq/internal/workloads"
)

// compileGHZ produces a real compiler artifact — the round-trip tests run
// against what the pipeline actually emits, not a hand-built facsimile.
func compileGHZ(t *testing.T, n int) *compiler.Compiled {
	t.Helper()
	c := workloads.GHZ(n)
	m, err := machine.NewForCircuit(c, 2, 2, machine.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := machine.CompileUncached(c, nil, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// compileSkeleton produces a parameterized skeleton — ParamSlots and a
// symbolic table Sym populated, the fields the restart-warm contract most
// depends on surviving the disk round-trip.
func compileSkeleton(t *testing.T, n int) *compiler.Compiled {
	t.Helper()
	c := workloads.QFTSweep(n)
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Artifacts = artifact.New(4) // keep the Shared cache out of it
	cfg.Net.MeshW, cfg.Net.MeshH = 2, 2
	cp, err := machine.Compile(c, nil, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func fpOf(b byte) artifact.Fingerprint {
	var fp artifact.Fingerprint
	fp[0] = b
	return fp
}

// The store's reason to exist: what comes back from disk is structurally
// identical to what the compiler produced — for a concrete circuit and
// for a parameterized skeleton with live ParamSlots.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, cp := range map[string]*compiler.Compiled{
		"ghz":      compileGHZ(t, 4),
		"skeleton": compileSkeleton(t, 4),
	} {
		got, err := store.Decode(store.Encode(cp))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Errorf("%s: decoded artifact differs from compiled original", name)
		}
	}
}

// Synthetic edge shapes the compiler doesn't currently emit but the
// format promises to preserve: non-nil Symbols, empty-vs-nil slices, and
// negative/extreme scalar values.
func TestRoundTripEdgeShapes(t *testing.T) {
	cases := map[string]*compiler.Compiled{
		"empty": {},
		"symbols": {
			Programs: []*isa.Program{{
				Instrs:  []isa.Instr{{Op: isa.OpHALT, Rd: 1, Rs1: 2, Rs2: 3, Imm: -7}},
				Symbols: map[string]int{"loop": 4, "end": -1},
			}},
		},
		"empty-inner": {
			Programs: []*isa.Program{{}},
			Tables:   [][]chip.TableEntry{nil, {}},
			Mapping:  []int{},
		},
		"values": {
			Tables: [][]chip.TableEntry{{
				{Role: chip.RoleSingle, Kind: circuit.RZ, Param: -3.14159, Qubit: 7, Partner: -1, Channel: 2, Sym: "theta0"},
			}},
			BitOwner:   []int{0, 3, -1},
			MemBytes:   1 << 20,
			Mapping:    []int{3, 2, 1, 0},
			ParamSlots: []compiler.ParamSlot{{Ctrl: 1, Index: 0, Sym: "theta0"}},
		},
	}
	for name, cp := range cases {
		got, err := store.Decode(store.Encode(cp))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Errorf("%s: round trip altered the artifact:\n got %+v\nwant %+v", name, got, cp)
		}
	}
}

// TestEncodeCoversEveryField is the guard that makes "add a field to
// compiler.Compiled or compiler.Stats" impossible to do without persisting
// it: every exported leaf reachable from Compiled is set to its own
// non-zero value, and the disk round trip must give all of them back. A
// field Encode forgets decodes as zero and fails here, not as a restarted
// daemon that answers differently from the one that compiled.
func TestEncodeCoversEveryField(t *testing.T) {
	next := int64(0)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		next++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if !v.Type().Field(i).IsExported() {
					t.Fatalf("%s.%s is unexported: the store cannot persist it", path, v.Type().Field(i).Name)
				}
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Ptr:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), path)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0), path+"[0]")
			fill(v.Index(1), path+"[1]")
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(key, path+"[key]")
			fill(val, path+"[val]")
			v.SetMapIndex(key, val)
		case reflect.Int, reflect.Int32, reflect.Int64:
			v.SetInt(next)
		case reflect.Uint8:
			v.SetUint(uint64(next%250 + 1))
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.5)
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", next))
		default:
			t.Fatalf("%s: the test cannot fill a %s; teach it", path, v.Kind())
		}
	}
	cp := &compiler.Compiled{}
	fill(reflect.ValueOf(cp).Elem(), "Compiled")
	got, err := store.Decode(store.Encode(cp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("the store drops or alters a field of the artifact — persist it in Encode/Decode and bump Version:\n got %+v\nwant %+v", got, cp)
	}
}

// Encoding is canonical: the same artifact always produces the same
// bytes (content addressing rewrites files in place on re-spill).
func TestEncodeDeterministic(t *testing.T) {
	cp := &compiler.Compiled{
		Programs: []*isa.Program{{Symbols: map[string]int{"a": 1, "b": 2, "c": 3, "d": 4}}},
	}
	first := store.Encode(cp)
	for i := 0; i < 8; i++ {
		if string(store.Encode(cp)) != string(first) {
			t.Fatal("two encodings of one artifact differ")
		}
	}
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp := compileSkeleton(t, 4)
	fp := fpOf(1)
	if err := s.Put(fp, cp); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Error("same-process Get differs from Put")
	}

	// The restart: a brand-new Store over the same directory serves the
	// artifact — that is the whole point of the spill tier.
	s2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexed %d artifacts, want 1", s2.Len())
	}
	got2, err := s2.Get(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, cp) {
		t.Error("post-reopen Get differs from pre-restart Put")
	}
	if _, err := s2.Get(fpOf(9)); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("absent key: got %v, want ErrNotFound", err)
	}
}

// The byte budget is enforced by evicting least-recently-written files,
// and the artifact just written is never its own victim.
func TestGCBoundsBytes(t *testing.T) {
	cp := compileGHZ(t, 4)
	one := int64(len(store.Encode(cp)))
	dir := t.TempDir()
	s, err := store.Open(dir, 3*one)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 8; i++ {
		if err := s.Put(fpOf(i), cp); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > 3*one {
		t.Errorf("store holds %d bytes, budget %d", st.Bytes, 3*one)
	}
	if st.Evictions == 0 {
		t.Error("GC evicted nothing despite exceeding the budget")
	}
	// The newest write must have survived; the oldest must be gone.
	if _, err := s.Get(fpOf(7)); err != nil {
		t.Errorf("newest artifact evicted: %v", err)
	}
	if _, err := s.Get(fpOf(0)); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("oldest artifact survived a full GC cycle: %v", err)
	}

	// A budget smaller than a single artifact still persists the latest
	// write — the just-written file is exempt from its own GC.
	tiny, err := store.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.Put(fpOf(1), cp); err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Get(fpOf(1)); err != nil {
		t.Errorf("oversized artifact did not persist: %v", err)
	}
}

// A corrupted file is rejected with ErrCorrupt and dropped from the
// store; it never decodes into a wrong artifact.
func TestCorruptFileDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := fpOf(2)
	if err := s.Put(fp, compileGHZ(t, 4)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fp.String()+".art")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(fp); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("bit-flipped file: got %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file was not removed")
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1", st.CorruptDropped)
	}
	// A truncated file fails the same way.
	fp2 := fpOf(3)
	if err := s.Put(fp2, compileGHZ(t, 4)); err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(dir, fp2.String()+".art")
	if err := os.Truncate(path2, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(fp2); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("truncated file: got %v, want ErrCorrupt", err)
	}
}

// A version-bumped file — a store written by a future encoding — is
// rejected outright rather than misparsed. The checksum is recomputed so
// the failure is the version check, not the integrity check.
func TestFutureVersionRejected(t *testing.T) {
	data := store.Encode(&compiler.Compiled{})
	body := data[:len(data)-sha256.Size]
	body[8]++ // little-endian version word sits after the 8-byte magic
	sum := sha256.Sum256(body)
	bumped := append(append([]byte(nil), body...), sum[:]...)
	if _, err := store.Decode(bumped); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("future version: got %v, want ErrCorrupt", err)
	}
}

// Open ignores files that aren't well-formed artifact names and never
// trips over them later.
func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "short.art", "spill-123.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("indexed %d foreign files as artifacts", s.Len())
	}
}

// Concurrent spills, restores, and evictions on one store: the -race
// battery for the persistence tier. Correctness bar: no data race, no
// panic, and every successful Get decodes a structurally valid artifact.
func TestConcurrentSpillRestoreEviction(t *testing.T) {
	cp := compileGHZ(t, 4)
	one := int64(len(store.Encode(cp)))
	s, err := store.Open(t.TempDir(), 4*one) // tight budget: evictions race the Gets
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				fp := fpOf(byte(i % 10))
				if w%2 == 0 {
					if err := s.Put(fp, cp); err != nil {
						t.Errorf("Put: %v", err)
					}
				} else if got, ok := s.Load(fp); ok {
					if len(got.Programs) != len(cp.Programs) {
						t.Error("restored artifact is malformed")
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// The store under the cache: GetOrCompile spills compiles and restores
// them after a Clear (the in-process model of a restart) with zero fresh
// compiles — the contract the serve-level crash/restart test re-proves
// over HTTP.
func TestCacheSpillRestore(t *testing.T) {
	s, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := artifact.New(8)
	cache.SetStore(s)

	want := compileGHZ(t, 4)
	fp := fpOf(5)
	compiles := 0
	compile := func() (*compiler.Compiled, error) { compiles++; return want, nil }

	if _, hit, err := cache.GetOrCompile(fp, compile); err != nil || hit {
		t.Fatalf("cold GetOrCompile: hit=%v err=%v", hit, err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Spills != 1 || st.StoreMisses != 1 {
		t.Fatalf("after compile: %+v (want 1 miss, 1 spill, 1 store miss)", st)
	}

	cache.Clear() // the restart: memory gone, disk and attachment persist
	got, hit, err := cache.GetOrCompile(fp, compile)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("restore from store did not report a hit")
	}
	if compiles != 1 {
		t.Fatalf("restart recompiled: %d compiles, want 1", compiles)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("restored artifact differs from the compiled original")
	}
	st := cache.Stats()
	if st.Misses != 0 {
		t.Errorf("restore charged %d misses, want 0 (misses must equal compiles)", st.Misses)
	}
	if st.StoreHits != 1 || st.Hits != 1 {
		t.Errorf("restore counters: %+v (want hits=1, store_hits=1)", st)
	}

	// Get (the probe path the service uses) restores too.
	cache.Clear()
	if _, ok := cache.Get(fp); !ok {
		t.Error("Get did not restore from the store after Clear")
	}

	// Detached store: a Clear is now genuinely cold.
	cache.SetStore(nil)
	cache.Clear()
	if _, ok := cache.Get(fp); ok {
		t.Error("detached store still served a restore")
	}
}

// Spill failures are best-effort: the request still succeeds, the error
// is counted, nothing else changes.
func TestSpillErrorIsNonFatal(t *testing.T) {
	cache := artifact.New(8)
	cache.SetStore(failingStore{})
	want := &compiler.Compiled{}
	cp, _, err := cache.GetOrCompile(fpOf(1), func() (*compiler.Compiled, error) { return want, nil })
	if err != nil || cp != want {
		t.Fatalf("compile through failing store: cp=%v err=%v", cp, err)
	}
	if st := cache.Stats(); st.SpillErrors != 1 || st.Spills != 0 {
		t.Errorf("spill-error counters: %+v", st)
	}
}

type failingStore struct{}

func (failingStore) Load(artifact.Fingerprint) (*compiler.Compiled, bool) { return nil, false }
func (failingStore) Save(artifact.Fingerprint, *compiler.Compiled) error {
	return fmt.Errorf("disk on fire")
}

// Concurrent GetOrCompile through a cache with a store attached, racing
// Clear: the restart-warm machinery itself must be race-free.
func TestCacheStoreConcurrency(t *testing.T) {
	s, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := artifact.New(4)
	cache.SetStore(s)
	want := compileGHZ(t, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				fp := fpOf(byte(i % 6))
				switch w % 3 {
				case 0:
					cp, _, err := cache.GetOrCompile(fp, func() (*compiler.Compiled, error) { return want, nil })
					if err != nil || cp == nil {
						t.Errorf("GetOrCompile: %v", err)
					}
				case 1:
					cache.Get(fp)
				default:
					if i%10 == 0 {
						cache.Clear()
					}
					cache.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
}
