package store_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"dhisq/internal/compiler"
	"dhisq/internal/isa"
	"dhisq/internal/machine"
	"dhisq/internal/store"
	"dhisq/internal/workloads"
)

// encodePin is the SHA-256 of the length-prefixed encodings of
// pinnedArtifacts, taken at commit 5e0b11a. Store files are content
// addressed and outlive the process that wrote them, so Encode's bytes may
// change only with a Version bump; this digest is not edited to make a
// change pass.
const encodePin = "ff13aa0134c6682d333a270debe4a6ca7d52f481d34d28bbcb9c725d9ff3dd40"

// pinnedArtifacts are the FuzzStoreDecode seed, two hand-built edge shapes
// and real compiles: a GHZ, a parameterized skeleton with live slots, a
// dynamic BV with feed-forward, and a 2-chip dvqe with a public-bit cut.
func pinnedArtifacts(t *testing.T) []*compiler.Compiled {
	t.Helper()
	compile := func(c *compiler.Compiled, err error) *compiler.Compiled {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	bv, err := workloads.Dynamic(workloads.BV(16, workloads.AlternatingSecret))
	if err != nil {
		t.Fatal(err)
	}
	dvqe := workloads.DistributedVQE(8, 2)
	cfg := machine.DefaultConfig(dvqe.NumQubits)
	cfg.Chips, cfg.Placement = 2, "interaction"
	return []*compiler.Compiled{
		fuzzSeedArtifact(),
		{},
		{Programs: []*isa.Program{{Symbols: map[string]int{"b": 2, "a": 1}}}, Mapping: []int{}},
		compileGHZ(t, 4),
		compileSkeleton(t, 4),
		compile(machine.CompileUncached(bv, nil, machine.DefaultConfig(bv.NumQubits))),
		compile(machine.CompileUncached(dvqe, nil, cfg)),
	}
}

// TestEncodeBytesPinned holds Encode's output to the bytes it wrote when
// the digest was taken.
func TestEncodeBytesPinned(t *testing.T) {
	h := sha256.New()
	for _, cp := range pinnedArtifacts(t) {
		b := store.Encode(cp)
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(b))))
		h.Write(b)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != encodePin {
		t.Fatalf("Encode's bytes changed: digest %s, pinned %s", got, encodePin)
	}
}

// TestEncodeAllocatesOnce: Encode sizes its buffer to the exact encoding,
// checksum included, and writes every byte into that one allocation. The
// compiler emits no symbol table, whose sorted names would be a second.
func TestEncodeAllocatesOnce(t *testing.T) {
	for i, cp := range pinnedArtifacts(t) {
		b := store.Encode(cp)
		if len(b) != cap(b) {
			t.Errorf("artifact %d: %d bytes in a buffer of %d", i, len(b), cap(b))
		}
		if hasSymbols(cp) {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { store.Encode(cp) }); allocs != 1 {
			t.Errorf("artifact %d: Encode allocates %.0f times, want 1", i, allocs)
		}
	}
}

func hasSymbols(cp *compiler.Compiled) bool {
	for _, p := range cp.Programs {
		if len(p.Symbols) > 0 {
			return true
		}
	}
	return false
}
