package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"unsafe"

	"dhisq/internal/circuit"
)

// memoBytes bounds what the admission memo retains, charged per entry as the
// body's length plus the ops of the circuit it built (a 30-byte bench body
// can build a circuit of megabytes). Oldest entries go first; an entry that
// alone exceeds the budget is not stored.
const memoBytes = 16 << 20

// maxMemoKeys caps the top-level members a memoised body may have. A
// Submission declares twelve wire names, so a longer object repeats one or
// names an unknown field and the full decoder answers it; the cap also bounds
// the pairwise duplicate check by a constant.
const maxMemoKeys = 16

// Admit is POST /v1/jobs's admission: DecodeSubmission, Build and Resolve,
// with a decode error prefixed "bad JSON: ". A body that differs from an
// earlier admitted one only in the values of its top-level "seed" and
// "shots" members is admitted from a memo instead — no JSON decode, no parse,
// no fingerprint — re-running only the shot checks on the new values. So a
// client that resubmits one program with a new seed pays one SHA-256 of the
// body. Only successful admissions are stored, and a body the memo cannot
// vouch for takes the full path, so every error still comes from it.
//
// What a hit returns shares the circuit, mapping and params/sweep maps with
// the admission it was stored from: nothing downstream writes them.
func (s *Service) Admit(body []byte) (Admission, error) {
	key, cut, vouched := memoKey(body)
	if vouched {
		if a, hit := s.memo.get(key); hit {
			if seed, shots, ok := memoValues(body, cut); ok {
				if err := checkShots(shots, len(a.Req.Sweep)); err != nil {
					return Admission{}, err
				}
				a.Req.Seed, a.Req.Shots, a.Spec.Cfg.Seed = seed, shots, seed
				return a, nil
			}
		}
	}
	a, err := admitBody(body)
	if err == nil && vouched {
		s.memo.put(key, a, len(body)+len(a.Spec.Circuit.Ops)*int(unsafe.Sizeof(circuit.Op{})))
	}
	return a, err
}

// admitBody is the full admission of a POST /v1/jobs body.
func admitBody(body []byte) (Admission, error) {
	sub, err := DecodeSubmission(body)
	if err != nil {
		return Admission{}, fmt.Errorf("bad JSON: %w", err)
	}
	req, err := sub.Build()
	if err != nil {
		return Admission{}, err
	}
	return Resolve(req)
}

// memoValues decodes the seed and shots values cut out of body (zero where a
// member is absent). ok is false when json.Unmarshal rejects one: the
// decoder's own message is then the full path's to give.
func memoValues(body []byte, cut [2]span) (seed int64, shots int, ok bool) {
	if sp := cut[0]; sp.lo >= 0 && json.Unmarshal(body[sp.lo:sp.hi], &seed) != nil {
		return 0, 0, false
	}
	if sp := cut[1]; sp.lo >= 0 && json.Unmarshal(body[sp.lo:sp.hi], &shots) != nil {
		return 0, 0, false
	}
	return seed, shots, true
}

// span is a value's byte range in a body; lo < 0 means the member is absent.
type span struct{ lo, hi int }

// memoKey is the memo key of a body: the SHA-256 of the body with the values
// of its top-level "seed" and "shots" members cut out, the pieces that are
// left each prefixed with its length, so two bodies share a key exactly when
// they differ in nothing but those values. cut holds the two values' spans,
// seed first. ok is false for a body scanTop cannot vouch for.
func memoKey(body []byte) (key [sha256.Size]byte, cut [2]span, ok bool) {
	if cut, ok = scanTop(body); !ok {
		return key, cut, false
	}
	first, second := cut[0], cut[1]
	if first.lo < 0 || (second.lo >= 0 && second.lo < first.lo) {
		first, second = second, first
	}
	h := sha256.New()
	done := 0
	for _, sp := range [...]span{first, second, {len(body), len(body)}} {
		if sp.lo >= 0 {
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(sp.lo-done))
			h.Write(n[:])
			h.Write(body[done:sp.lo])
			done = sp.hi
		}
	}
	h.Sum(key[:0])
	return key, cut, true
}

// scanTop finds the values of body's top-level "seed" and "shots" members
// in one pass over the object. It vouches only for what the memo can answer
// exactly as encoding/json would: a single object with nothing after it,
// whose keys hold no escape (one could spell "seed"), none of which matches
// another or "seed"/"shots" under case folding unless spelt exactly so
// (encoding/json folds keys, and the last duplicate wins). The rest of the
// body is not validated: a body the full decoder rejects is never stored, and
// a hit's bytes outside the two values are those of a body it accepted.
func scanTop(b []byte) (cut [2]span, ok bool) {
	cut = [2]span{{-1, -1}, {-1, -1}}
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return cut, false
	}
	i = skipSpace(b, i+1)
	var keys [maxMemoKeys][]byte
	for n := 0; ; n++ {
		if i == len(b) || b[i] != '"' || n == maxMemoKeys {
			return cut, false
		}
		end := skipString(b, i)
		if end < 0 {
			return cut, false
		}
		key := b[i+1 : end-1]
		if bytes.IndexByte(key, '\\') >= 0 {
			return cut, false
		}
		for _, k := range keys[:n] {
			if bytes.EqualFold(k, key) {
				return cut, false
			}
		}
		keys[n] = key
		member := -1
		switch {
		case string(key) == "seed":
			member = 0
		case string(key) == "shots":
			member = 1
		case bytes.EqualFold(key, []byte("seed")), bytes.EqualFold(key, []byte("shots")):
			return cut, false
		}
		if i = skipSpace(b, end); i == len(b) || b[i] != ':' {
			return cut, false
		}
		i = skipSpace(b, i+1)
		j := skipValue(b, i)
		if j < 0 {
			return cut, false
		}
		if member >= 0 {
			cut[member] = span{i, j}
		}
		if i = skipSpace(b, j); i == len(b) {
			return cut, false
		}
		switch b[i] {
		case '}':
			return cut, skipSpace(b, i+1) == len(b)
		case ',':
			i = skipSpace(b, i+1)
		default:
			return cut, false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string starting at b[i] == '"',
// or -1 if it does not end. A quote ends it unless an odd run of backslashes
// stands before it.
func skipString(b []byte, i int) int {
	for j := i + 1; ; {
		k := bytes.IndexByte(b[j:], '"')
		if k < 0 {
			return -1
		}
		q := j + k
		esc := 0
		for p := q - 1; p > i && b[p] == '\\'; p-- {
			esc++
		}
		if esc%2 == 0 {
			return q + 1
		}
		j = q + 1
	}
}

// skipValue returns the index just past the value starting at b[i], or -1.
// Objects and arrays are skipped by bracket depth, strings by skipString,
// and anything else runs to the next delimiter.
func skipValue(b []byte, i int) int {
	if i == len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for j := i; j < len(b); j++ {
			switch b[j] {
			case '"':
				if j = skipString(b, j); j < 0 {
					return -1
				}
				j--
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return j + 1
				}
			}
		}
		return -1
	}
	j := i
	for j < len(b) && strings.IndexByte(",}] \t\n\r", b[j]) < 0 {
		j++
	}
	return j
}

// admitMemo is the bounded memo behind Admit: successful admissions by
// memoKey, evicted oldest first past memoBytes.
type admitMemo struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]memoEntry
	order   [][sha256.Size]byte // insertion order, oldest first
	bytes   int
}

type memoEntry struct {
	adm  Admission
	cost int
}

func (m *admitMemo) get(key [sha256.Size]byte) (Admission, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return e.adm, ok
}

func (m *admitMemo) put(key [sha256.Size]byte, a Admission, cost int) {
	if cost > memoBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return
	}
	if m.entries == nil {
		m.entries = make(map[[sha256.Size]byte]memoEntry)
	}
	for m.bytes+cost > memoBytes {
		oldest := m.order[0]
		m.order = m.order[1:]
		m.bytes -= m.entries[oldest].cost
		delete(m.entries, oldest)
	}
	m.entries[key] = memoEntry{adm: a, cost: cost}
	m.order = append(m.order, key)
	m.bytes += cost
}
