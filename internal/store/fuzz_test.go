package store_test

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"dhisq/internal/compiler"
	"dhisq/internal/isa"
	"dhisq/internal/store"
)

// FuzzStoreDecode is the adversarial half of the persistence contract: a
// store file may be truncated mid-write crash, bit-rotted, or written by
// a different version of the encoder, and Decode must reject every such
// input with an error — never panic, never over-allocate, and never
// return a silently wrong artifact. The final property is the sharp one:
// any mutation that survives decoding must have failed the checksum, so
// a successful decode of valid input re-encodes to the identical bytes.
func FuzzStoreDecode(f *testing.F) {
	valid := store.Encode(fuzzSeedArtifact())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])  // truncated mid-payload
	f.Add(valid[:11])            // truncated inside the header
	f.Add([]byte{})              // empty
	f.Add([]byte("DHSQART\x00")) // magic only
	bumped := append([]byte(nil), valid...)
	bumped[8]++ // future version
	f.Add(bumped)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01 // payload bit rot
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	huge[12] = 0xFF // forged element count
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := store.Decode(data)
		if err != nil {
			if cp != nil {
				t.Fatal("Decode returned both an artifact and an error")
			}
			return
		}
		// Whatever decoded must be the canonical decoding of its own
		// encoding: Decode accepts exactly the image of Encode, so a
		// mutated file can never smuggle in a different artifact.
		again, err := store.Decode(store.Encode(cp))
		if err != nil {
			t.Fatalf("re-decode of re-encoded artifact failed: %v", err)
		}
		if !reflect.DeepEqual(again, cp) {
			t.Fatal("decode/encode/decode changed the artifact")
		}
		// And the input itself must have been a well-formed file: correct
		// trailing checksum over everything before it.
		body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
		if sum := sha256.Sum256(body); string(sum[:]) != string(tail) {
			t.Fatal("Decode accepted input with a bad checksum")
		}
	})
}

// fuzzSeedArtifact is the valid artifact every FuzzStoreDecode seed is cut
// from.
func fuzzSeedArtifact() *compiler.Compiled {
	return &compiler.Compiled{
		Programs: []*isa.Program{{
			Instrs:  []isa.Instr{{Op: isa.OpHALT, Rd: 1, Imm: 42}},
			Symbols: map[string]int{"start": 0},
		}},
		BitOwner:   []int{0, 1},
		MemBytes:   64,
		Mapping:    []int{0, 1},
		ParamSlots: []compiler.ParamSlot{{Ctrl: 0, Index: 0, Sym: "theta0"}},
		MeasBits:   [][]int{{0}, nil, {1}},
	}
}
