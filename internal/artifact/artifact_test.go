package artifact_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/isa"
	"dhisq/internal/machine"
	"dhisq/internal/runner"
)

func ghz(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	for q := 0; q < n-1; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.MeasureInto(q, q)
	}
	return c
}

func testSpec(seed int64) runner.Spec {
	c := ghz(4)
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Backend = machine.BackendStateVec
	cfg.Seed = seed
	return runner.Spec{Circuit: c, MeshW: 2, MeshH: 2, Cfg: cfg}
}

// Key must be a pure function of its inputs: same tuple, same fingerprint.
func TestKeyDeterministic(t *testing.T) {
	s := testSpec(1)
	opt := compiler.DefaultOptions(0, 4)
	a := artifact.Key(s.Circuit, nil, s.Cfg.Net, opt, 0, false)
	b := artifact.Key(ghz(4), nil, s.Cfg.Net, opt, 0, false)
	if a != b {
		t.Fatalf("identical inputs fingerprint differently: %s vs %s", a, b)
	}
}

// Any circuit or mapping difference that can change the compiler's output
// must change the key (every option and fabric field: TestKeyCoversEveryOption),
// and so must the backend, which the key carries for the replica pool.
func TestKeyDiscriminates(t *testing.T) {
	base := testSpec(1)
	opt := compiler.DefaultOptions(0, 4)
	ref := artifact.Key(base.Circuit, nil, base.Cfg.Net, opt, 0, false)

	seen := map[artifact.Fingerprint]string{ref: "base"}
	check := func(name string, fp artifact.Fingerprint) {
		t.Helper()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}

	other := ghz(4)
	other.H(3)
	check("extra gate", artifact.Key(other, nil, base.Cfg.Net, opt, 0, false))

	check("explicit identity mapping",
		artifact.Key(base.Circuit, []int{0, 1, 2, 3}, base.Cfg.Net, opt, 0, false))
	check("permuted mapping",
		artifact.Key(base.Circuit, []int{1, 0, 2, 3}, base.Cfg.Net, opt, 0, false))
	check("another backend", artifact.Key(base.Circuit, nil, base.Cfg.Net, opt, 1, false))
}

// TestKeyCoversEveryOption is the guard that makes "add a compiler.Options
// or network.Config field" impossible to do without hashing it: every leaf
// field of both structs (recursing into nested structs) is perturbed in
// turn, and both kinds of Key (full and structural) must move. A field that
// really must not be hashed goes on the exempt list with its reason.
func TestKeyCoversEveryOption(t *testing.T) {
	exempt := map[string]string{} // "Options.Field" -> why it is not hashed

	base := testSpec(1)
	opt := compiler.DefaultOptions(0, 4)
	net := base.Cfg.Net
	keys := func() [2]artifact.Fingerprint {
		return [2]artifact.Fingerprint{
			artifact.Key(base.Circuit, nil, net, opt, 0, false),
			artifact.Key(base.Circuit, nil, net, opt, 0, true),
		}
	}
	ref := keys()

	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 3)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: the test cannot perturb a %s; teach it", path, v.Kind())
		}
		got := keys()
		v.Set(old)
		if why, ok := exempt[path]; ok {
			t.Logf("%s exempt: %s", path, why)
			return
		}
		if got[0] == ref[0] {
			t.Errorf("%s does not reach Key: hash it in artifact.Key (and bump keyVersion), or exempt it with a reason", path)
		}
		if got[1] == ref[1] {
			t.Errorf("%s does not reach the structural Key", path)
		}
	}
	walk(reflect.ValueOf(&opt).Elem(), "Options")
	walk(reflect.ValueOf(&net).Elem(), "Config")
	if keys() != ref {
		t.Fatal("walk did not restore the structs it perturbed")
	}
}

// Identical submissions hit; the second compile never runs.
func TestCacheHitSkipsCompile(t *testing.T) {
	cache := artifact.New(8)
	s := testSpec(1)
	opt := compiler.DefaultOptions(0, 4)
	fp := artifact.Key(s.Circuit, nil, s.Cfg.Net, opt, 0, false)

	var compiles atomic.Int64
	compile := func() (*compiler.Compiled, error) {
		compiles.Add(1)
		m, err := machine.NewForCircuit(s.Circuit, s.MeshW, s.MeshH, s.Cfg)
		if err != nil {
			return nil, err
		}
		return machine.CompileUncached(s.Circuit, nil, m.Cfg)
	}

	first, hit, err := cache.GetOrCompile(fp, compile)
	if err != nil || hit {
		t.Fatalf("first request: hit=%v err=%v", hit, err)
	}
	second, hit, err := cache.GetOrCompile(fp, compile)
	if err != nil || !hit {
		t.Fatalf("second request: hit=%v err=%v", hit, err)
	}
	if second != first {
		t.Fatal("hit returned a different artifact pointer")
	}
	if n := compiles.Load(); n != 1 {
		t.Fatalf("compiled %d times, want 1", n)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
}

// Distinct machine specs must miss even for the same circuit.
func TestDistinctSpecsMiss(t *testing.T) {
	cache := artifact.New(8)
	s := testSpec(1)
	opt := compiler.DefaultOptions(0, 4)

	compileFor := func(meshW, meshH int) artifact.Fingerprint {
		t.Helper()
		cfg := s.Cfg
		cfg.Net.MeshW, cfg.Net.MeshH = meshW, meshH
		fp := artifact.Key(s.Circuit, nil, cfg.Net, opt, 0, false)
		_, _, err := cache.GetOrCompile(fp, func() (*compiler.Compiled, error) {
			m, err := machine.NewForCircuit(s.Circuit, meshW, meshH, s.Cfg)
			if err != nil {
				return nil, err
			}
			return machine.CompileUncached(s.Circuit, nil, m.Cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}

	a := compileFor(2, 2)
	b := compileFor(4, 1)
	if a == b {
		t.Fatal("2x2 and 4x1 meshes share a fingerprint")
	}
	st := cache.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses / 0 hits", st)
	}
}

// The LRU bound holds: population never exceeds capacity, oldest goes
// first, and a touched entry survives eviction of its juniors.
func TestLRUEvictionBound(t *testing.T) {
	const capacity = 4
	cache := artifact.New(capacity)
	put := func(fp artifact.Fingerprint) {
		t.Helper()
		if _, _, err := cache.GetOrCompile(fp, func() (*compiler.Compiled, error) { return &compiler.Compiled{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	fps := make([]artifact.Fingerprint, 0, capacity+2)
	for i := 0; i < capacity; i++ {
		fp := artifact.Fingerprint{byte(i)}
		fps = append(fps, fp)
		put(fp)
	}
	// Touch entry 0 so entry 1 is now the LRU victim.
	if _, ok := cache.Get(fps[0]); !ok {
		t.Fatal("resident entry missing")
	}
	for i := 0; i < 2; i++ {
		fp := artifact.Fingerprint{0xF0, byte(i)}
		fps = append(fps, fp)
		put(fp)
	}
	st := cache.Stats()
	if st.Size != capacity {
		t.Fatalf("size %d exceeds capacity %d", st.Size, capacity)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if _, ok := cache.Get(fps[0]); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := cache.Get(fps[1]); ok {
		t.Fatal("LRU victim survived")
	}
	if _, ok := cache.Get(fps[2]); ok {
		t.Fatal("second LRU victim survived")
	}

	// Shrinking re-applies the bound.
	cache.Resize(1)
	if st := cache.Stats(); st.Size > 1 {
		t.Fatalf("size %d after Resize(1)", st.Size)
	}
}

// Cached and fresh compilation must be byte-identical: same encoded
// binaries, same tables, and identical shot outcomes through the runner.
func TestCachedMatchesFresh(t *testing.T) {
	s := testSpec(7)

	m, err := machine.NewForCircuit(s.Circuit, s.MeshW, s.MeshH, s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := machine.CompileUncached(s.Circuit, nil, m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := machine.Compile(s.Circuit, nil, m.Cfg, false) // populates the shared cache
	if err != nil {
		t.Fatal(err)
	}
	again, err := machine.Compile(s.Circuit, nil, m.Cfg, false) // must be served from it
	if err != nil {
		t.Fatal(err)
	}
	if again != cached {
		t.Fatal("repeat Compile did not return the cached artifact")
	}

	if len(fresh.Programs) != len(cached.Programs) {
		t.Fatalf("program counts differ: %d vs %d", len(fresh.Programs), len(cached.Programs))
	}
	for i := range fresh.Programs {
		fb, err := isa.EncodeProgram(fresh.Programs[i])
		if err != nil {
			t.Fatal(err)
		}
		cb, err := isa.EncodeProgram(cached.Programs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fb, cb) {
			t.Fatalf("controller %d: cached binary differs from fresh", i)
		}
	}
	if fmt.Sprint(fresh.Tables) != fmt.Sprint(cached.Tables) {
		t.Fatal("codeword tables differ")
	}
	if fmt.Sprint(fresh.BitOwner) != fmt.Sprint(cached.BitOwner) {
		t.Fatal("bit owners differ")
	}

	// Shot outcomes: warm-cache runner.Run vs the uncached artifact on its
	// own machine.
	const shots = 12
	warm, err := runner.Run(s, shots, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(fresh); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := runner.RunOn([]*machine.Machine{m}, s.Cfg.Seed, shots, s.Circuit.NumBits)
	if err != nil {
		t.Fatal(err)
	}
	for k := range warm.Shots {
		if warm.Shots[k].Key() != rebuilt.Shots[k].Key() || warm.Shots[k].Seed != rebuilt.Shots[k].Seed {
			t.Fatalf("shot %d diverged: cached %q seed %d vs fresh %q seed %d", k,
				warm.Shots[k].Key(), warm.Shots[k].Seed, rebuilt.Shots[k].Key(), rebuilt.Shots[k].Seed)
		}
	}
	if warm.Histogram().String() != rebuilt.Histogram().String() {
		t.Fatal("cached and fresh histograms differ")
	}
}

// Concurrent requests for one fingerprint collapse into one compile.
func TestSingleflight(t *testing.T) {
	cache := artifact.New(4)
	fp := artifact.Fingerprint{42}
	var compiles atomic.Int64
	gate := make(chan struct{})
	want := &compiler.Compiled{}

	const callers = 16
	var wg sync.WaitGroup
	results := make([]*compiler.Compiled, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp, _, err := cache.GetOrCompile(fp, func() (*compiler.Compiled, error) {
				compiles.Add(1)
				<-gate // hold every other caller in the inflight wait
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = cp
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Fatalf("%d concurrent compiles, want 1", n)
	}
	for i, cp := range results {
		if cp != want {
			t.Fatalf("caller %d got a different artifact", i)
		}
	}
}

// A failed compile is not cached and the error reaches every caller.
func TestCompileErrorNotCached(t *testing.T) {
	cache := artifact.New(4)
	fp := artifact.Fingerprint{7}
	boom := fmt.Errorf("boom")
	if _, _, err := cache.GetOrCompile(fp, func() (*compiler.Compiled, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := cache.Get(fp); ok {
		t.Fatal("failed compile was cached")
	}
	want := &compiler.Compiled{}
	cp, hit, err := cache.GetOrCompile(fp, func() (*compiler.Compiled, error) { return want, nil })
	if err != nil || hit || cp != want {
		t.Fatalf("retry after failure: cp=%v hit=%v err=%v", cp, hit, err)
	}
}

// A compile that panics still lands its flight: the waiter that joined it
// gets an error instead of blocking, and the next request for the
// fingerprint compiles again. Every wait is bounded, so a flight left
// open fails the test instead of hanging it.
func TestPanickingCompileLandsTheFlight(t *testing.T) {
	cache := artifact.New(4)
	fp := artifact.Fingerprint{9}
	const bound = 5 * time.Second

	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		cache.GetOrCompile(fp, func() (*compiler.Compiled, error) {
			close(started)
			<-release
			panic("compile blew up")
		})
	}()
	<-started

	var waiterCompiled atomic.Bool
	waiter := make(chan error, 1)
	go func() {
		_, _, err := cache.GetOrCompile(fp, func() (*compiler.Compiled, error) {
			waiterCompiled.Store(true)
			return &compiler.Compiled{}, nil
		})
		waiter <- err
	}()
	// Joining the flight counts a hit: release the compile only then.
	for deadline := time.Now().Add(bound); cache.Stats().Hits == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never joined the flight")
		}
	}
	close(release)

	select {
	case r := <-leader:
		if r != "compile blew up" {
			t.Fatalf("leader recovered %v, want the compile's panic", r)
		}
	case <-time.After(bound):
		t.Fatal("the leader did not panic out of GetOrCompile")
	}
	select {
	case err := <-waiter:
		if err == nil || waiterCompiled.Load() {
			t.Fatalf("waiter: err=%v compiled=%v, want the flight's error and no compile", err, waiterCompiled.Load())
		}
	case <-time.After(bound):
		t.Fatal("the waiter is still blocked on the panicked flight")
	}

	want := &compiler.Compiled{}
	next := make(chan error, 1)
	go func() {
		cp, hit, err := cache.GetOrCompile(fp, func() (*compiler.Compiled, error) { return want, nil })
		if err == nil && (hit || cp != want) {
			err = fmt.Errorf("cp=%p hit=%v, want a fresh compile", cp, hit)
		}
		next <- err
	}()
	select {
	case err := <-next:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(bound):
		t.Fatal("the next request blocked: the panicked compile left its fingerprint in flight")
	}
	if st := cache.Stats(); st.Misses != 2 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 2 misses (both compiles) and the second artifact resident", st)
	}
}
