package service

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dhisq/internal/circuit"
	"dhisq/internal/workloads"
)

const admitGHZ = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
`

// admitSkeleton has a symbolic angle named like a top-level member, so a
// "seed" inside "params" or "sweep" must not be cut.
const admitSkeleton = `OPENQASM 2.0;
qreg q[2];
creg c[2];
h q[0];
ry(seed) q[1];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`

// quoted is s as a JSON string.
func quoted(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// sameAdmission fails unless Admit's answer is the full path's: a DeepEqual
// Admission or the identical error text.
func sameAdmission(t *testing.T, what string, got Admission, gotErr error, body []byte) {
	t.Helper()
	want, wantErr := admitBody(body)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: Admit err %v, full path err %v\nbody %s", what, gotErr, wantErr, body)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: Admit err %q, full path %q\nbody %s", what, gotErr, wantErr, body)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: Admit and the full path disagree\nbody %s\n got %+v\nwant %+v", what, body, got.Req, want.Req)
	}
}

// With the memo cold and warm, Admit answers every body as DecodeSubmission
// → Build → Resolve does; the probes the memo may answer are answered from
// it (the primer's circuit comes back), and the ones it must not vouch for
// are not.
func TestAdmitMatchesFullPath(t *testing.T) {
	q, sk := quoted(admitGHZ), quoted(admitSkeleton)
	qb := quoted(admitGHZ + `// \`)
	cases := []struct {
		name, primer, probe string
		hit                 bool
	}{
		{"seed changes", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":4,"seed":2}`, true},
		{"shots change", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":90,"seed":1}`, true},
		{"value lengths change", `{"seed":1,"shots":4,"qasm":` + q + `}`, `{"seed":-123456789,"shots":4000,"qasm":` + q + `}`, true},
		{"seed added", `{"qasm":` + q + `,"shots":4}`, `{"qasm":` + q + `,"shots":4,"seed":7}`, false},
		{"reordered members", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"seed":2,"shots":4,"qasm":` + q + `}`, false},
		{"whitespace", " {\n \"qasm\" : " + q + " ,\t\"shots\" :  4 , \"seed\": 1 }\r\n", " {\n \"qasm\" : " + q + " ,\t\"shots\" :  8 , \"seed\": 5 }\r\n", true},
		{"whitespace moves", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots": 4,"seed":1}`, false},
		{"seed null", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":4,"seed":null}`, true},
		{"shots null", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":null,"seed":1}`, true},
		{"shots 0", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":0,"seed":1}`, true},
		{"shots negative", `{"qasm":` + q + `,"shots":4}`, `{"qasm":` + q + `,"shots":-3}`, true},
		{"shots 4.5", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":4.5,"seed":1}`, false},
		{"shots string", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":"4","seed":1}`, false},
		{"shots exponent", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":1e2,"seed":1}`, false},
		{"seed overflows", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":4,"seed":99999999999999999999}`, false},
		{"seed object", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":4,"seed":{"a":1}}`, false},
		{"seed missing value", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":4,"seed":}`, false},
		{"duplicate seed", `{"qasm":` + q + `,"shots":4,"seed":1,"seed":2}`, `{"qasm":` + q + `,"shots":4,"seed":1,"seed":3}`, false},
		{"duplicate qasm", `{"qasm":"x","qasm":` + q + `,"shots":4}`, `{"qasm":"x","qasm":` + q + `,"shots":5}`, false},
		{"case-folded seed", `{"qasm":` + q + `,"shots":4,"Seed":1}`, `{"qasm":` + q + `,"shots":4,"Seed":3}`, false},
		{"case-folded duplicate", `{"qasm":` + q + `,"shots":4,"seed":1,"SEED":2}`, `{"qasm":` + q + `,"shots":4,"seed":1,"SEED":3}`, false},
		{"folded by unicode", `{"qasm":` + q + `,"shots":4,"ſeed":1}`, `{"qasm":` + q + `,"shots":4,"ſeed":3}`, false},
		{"case-folded seed repeated", `{"qasm":` + q + `,"shots":4,"Seed":1}`, `{"qasm":` + q + `,"shots":4,"Seed":1}`, false},
		{"escaped key repeated", `{"qasm":` + q + `,"shots":4,"\u0073eed":1}`, `{"qasm":` + q + `,"shots":4,"\u0073eed":1}`, false},
		{"escaped key", `{"qasm":` + q + `,"shots":4,"\u0073eed":1}`, `{"qasm":` + q + `,"shots":4,"\u0073eed":3}`, false},
		{"escaped shots key", `{"qasm":` + q + `,"\u0073hots":4}`, `{"qasm":` + q + `,"\u0073hots":0}`, false},
		{"trailing data", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":4,"seed":2} {}`, false},
		{"trailing comma", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":4,"seed":2,}`, false},
		{"not an object", `{"qasm":` + q + `,"shots":4,"seed":1}`, `[{"qasm":` + q + `,"shots":4,"seed":2}]`, false},
		{"unknown field", `{"qasm":` + q + `,"shots":4,"seed":1}`, `{"qasm":` + q + `,"shots":4,"seed":2,"sed":1}`, false},
		{"bench", `{"bench":"bv_n400","scale":8,"shots":2,"seed":1}`, `{"bench":"bv_n400","scale":8,"shots":3,"seed":9}`, true},
		{"bench default params", `{"bench":"dvqe","shots":2,"chips":2}`, `{"bench":"dvqe","shots":7,"chips":2}`, true},
		{"nested seed is a param", `{"qasm":` + sk + `,"shots":2,"params":{"seed":0.5}}`, `{"qasm":` + sk + `,"shots":2,"params":{"seed":0.75}}`, false},
		{"params", `{"qasm":` + sk + `,"params":{"seed":0.5},"shots":2,"seed":4}`, `{"qasm":` + sk + `,"params":{"seed":0.5},"shots":3,"seed":8}`, true},
		{"sweep", `{"qasm":` + sk + `,"shots":2,"sweep":[{"seed":0.1},{"seed":0.2}]}`, `{"qasm":` + sk + `,"shots":524288,"sweep":[{"seed":0.1},{"seed":0.2}]}`, true},
		{"sweep over MaxJobShots", `{"qasm":` + sk + `,"shots":2,"sweep":[{"seed":0.1},{"seed":0.2}]}`, `{"qasm":` + sk + `,"shots":524289,"sweep":[{"seed":0.1},{"seed":0.2}]}`, true},
		{"string with escapes", `{"qasm":` + q + `,"placement":"identity","shots":4}`, `{"qasm":` + q + `,"placement":"identity","shots":6}`, true},
		{"string ends in a backslash", `{"qasm":` + qb + `,"shots":4,"seed":1}`, `{"qasm":` + qb + `,"shots":4,"seed":2}`, true},
		{"escaped quote before a key", `{"qasm":` + q + `,"shots":4}`, `{"qasm":"\\\"","shots":4}`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			svc := New(Config{Workers: 1})
			defer svc.Close()
			primer, perr := svc.Admit([]byte(c.primer))
			sameAdmission(t, "primer", primer, perr, []byte(c.primer))
			if c.hit && perr != nil {
				t.Fatalf("primer of a memo hit failed: %v", perr)
			}
			for _, warm := range []bool{true, false} {
				if !warm {
					svc = New(Config{Workers: 1})
					defer svc.Close()
				}
				got, err := svc.Admit([]byte(c.probe))
				sameAdmission(t, fmt.Sprintf("probe (warm %v)", warm), got, err, []byte(c.probe))
				if warm && perr == nil && err == nil && (got.Spec.Circuit == primer.Spec.Circuit) != c.hit {
					t.Errorf("probe answered from the memo: %v, want %v", !c.hit, c.hit)
				}
			}
		})
	}
}

// maxMemoKeys leaves room for every wire name once.
func TestMemoKeysCoverTheWire(t *testing.T) {
	if n := len(jsonTags(reflect.TypeOf(Submission{}))); n > maxMemoKeys {
		t.Fatalf("Submission has %d wire names, the memo vouches for at most %d members", n, maxMemoKeys)
	}
}

// Filled past its budget, the memo drops its oldest entries first and never
// holds more than memoBytes; an entry larger than the budget is not stored.
func TestAdmitMemoBounded(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	// Each body is a distinct circuit charged about 1 MB, so forty of them
	// overflow the budget.
	body := func(k int) []byte {
		var b strings.Builder
		fmt.Fprintf(&b, "qreg q[2];\ncreg c[2];\nrz(%d) q[0];\n", k)
		for i := 0; i < 12000; i++ {
			b.WriteString("h q[1];\n")
		}
		b.WriteString("measure q[0] -> c[0];\n")
		return []byte(`{"qasm":` + quoted(b.String()) + `,"shots":1}`)
	}
	var keys [][32]byte
	for k := 0; k < 40; k++ {
		b := body(k)
		if _, err := svc.Admit(b); err != nil {
			t.Fatal(err)
		}
		key, _, ok := memoKey(b)
		if !ok {
			t.Fatalf("body %d not vouched for", k)
		}
		keys = append(keys, key)
		if svc.memo.bytes > memoBytes {
			t.Fatalf("after %d bodies the memo holds %d bytes, budget %d", k+1, svc.memo.bytes, memoBytes)
		}
	}
	held := len(svc.memo.entries)
	if held == len(keys) {
		t.Fatalf("%d bodies never filled the memo (%d bytes)", len(keys), svc.memo.bytes)
	}
	for i, key := range keys {
		if _, ok := svc.memo.entries[key]; ok != (i >= len(keys)-held) {
			t.Errorf("body %d of %d held %v: the memo keeps the newest %d", i, len(keys), ok, held)
		}
	}
	sum := 0
	for _, e := range svc.memo.entries {
		sum += e.cost
	}
	if sum != svc.memo.bytes || len(svc.memo.order) != held {
		t.Errorf("memo accounts %d bytes in %d orders, entries hold %d in %d", svc.memo.bytes, len(svc.memo.order), sum, held)
	}

	var m admitMemo
	m.put([32]byte{1}, Admission{}, memoBytes+1)
	if len(m.entries) != 0 || m.bytes != 0 {
		t.Errorf("an entry over the budget was stored")
	}
}

// Memo hits share their circuit, mapping and params/sweep maps with every
// earlier job of the body; run concurrently (under -race in CI), plain,
// params and sweep jobs each answer exactly as the first of their body did.
func TestAdmitHitsRunConcurrently(t *testing.T) {
	svc := New(Config{Workers: 3, ShotWorkers: 2, QueueDepth: 256})
	defer svc.Close()
	q, sk := quoted(admitGHZ), quoted(admitSkeleton)
	bodies := []string{
		`{"qasm":` + q + `,"shots":24,"seed":%d}`,
		`{"qasm":` + sk + `,"shots":16,"params":{"seed":0.3},"seed":%d}`,
		`{"qasm":` + sk + `,"shots":8,"sweep":[{"seed":0.1},{"seed":1.2},{"seed":2.3}],"seed":%d}`,
		`{"bench":"dvqe","scale":4,"chips":2,"shots":6,"seed":%d}`,
	}
	submit := func(body string, seed int) JobStatus {
		a, err := svc.Admit([]byte(fmt.Sprintf(body, seed)))
		if err != nil {
			t.Error(err)
			return JobStatus{}
		}
		id, err := svc.Enqueue(a)
		if err != nil {
			t.Error(err)
			return JobStatus{}
		}
		st, _ := svc.Wait(id)
		if st.State != StateDone {
			t.Errorf("job %s: %s %s", id, st.State, st.Err)
		}
		return st
	}
	const seeds = 3
	want := make([][]JobStatus, len(bodies))
	for i, body := range bodies {
		for seed := 1; seed <= seeds; seed++ {
			want[i] = append(want[i], submit(body, seed))
		}
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i, body := range bodies {
			for seed := 1; seed <= seeds; seed++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, w := submit(body, seed), want[i][seed-1]
					if !reflect.DeepEqual(got.Histogram, w.Histogram) || !reflect.DeepEqual(got.Points, w.Points) ||
						got.Fingerprint != w.Fingerprint || got.Seed != w.Seed {
						t.Errorf("body %d seed %d answered differently on a memo hit", i, seed)
					}
				}()
			}
		}
	}
	wg.Wait()
	if n := len(svc.memo.entries); n != len(bodies) {
		t.Errorf("memo holds %d entries for %d bodies differing only in seed", n, len(bodies))
	}
}

// FuzzAdmit admits each body twice on one service — the second time the memo
// may answer — and once more with its seed changed, each against the full
// path.
func FuzzAdmit(f *testing.F) {
	q, sk := quoted(admitGHZ), quoted(admitSkeleton)
	for _, s := range []string{
		`{"qasm":` + q + `,"shots":4,"seed":1}`,
		`{"seed":3,"qasm":` + q + `,"shots":4}`,
		`{"qasm":` + q + `,"shots":4,"Seed":1}`,
		`{"qasm":` + q + `,"shots":4,"seed":1,"seed":2}`,
		`{"qasm":` + q + `,"shots":4,"seed":1}`,
		`{"qasm":` + sk + `,"shots":2,"sweep":[{"seed":0.1},{"seed":0.2}],"seed":5}`,
		`{"qasm":` + sk + `,"shots":2,"params":{"seed":0.5}}`,
		`{"bench":"bv_n400","scale":8,"shots":2}`,
		`{"qasm":` + q + `,"shots":4,"seed":null} `,
		`{"qasm":` + q + `,"shots":0}`,
		`{}`,
		`[]`,
	} {
		f.Add([]byte(s), int64(7))
	}
	f.Fuzz(func(t *testing.T, body []byte, seed int64) {
		svc := New(Config{Workers: 1})
		defer svc.Close()
		for i := 0; i < 2; i++ {
			a, err := svc.Admit(body)
			sameAdmission(t, fmt.Sprintf("admission %d", i+1), a, err, body)
		}
		reseeded := body
		if cut, ok := scanTop(body); ok && cut[0].lo >= 0 {
			reseeded = fmt.Appendf(append([]byte(nil), body[:cut[0].lo]...), "%d%s", seed, body[cut[0].hi:])
		} else if ok && len(body) > 0 {
			i := strings.IndexByte(string(body), '{')
			reseeded = fmt.Appendf(append([]byte(nil), body[:i+1]...), `"seed":%d,%s`, seed, body[i+1:])
		}
		a, err := svc.Admit(reseeded)
		sameAdmission(t, "reseeded", a, err, reseeded)
	})
}

// BenchmarkAdmit times a qft_n30 QASM body's admission in full and as a memo
// hit that changes only the seed.
func BenchmarkAdmit(b *testing.B) {
	bench, err := workloads.Build("qft_n30")
	if err != nil {
		b.Fatal(err)
	}
	src, err := circuit.WriteQASM(bench.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	body := func(seed int) []byte {
		return []byte(fmt.Sprintf(`{"qasm":%s,"shots":4,"seed":%d}`, quoted(src), seed))
	}
	b.Run("full", func(b *testing.B) {
		body := body(1)
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := admitBody(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		svc := New(Config{Workers: 1})
		defer svc.Close()
		bodies := [][]byte{body(1), body(2)}
		b.SetBytes(int64(len(bodies[0])))
		for i := 0; i < b.N; i++ {
			if _, err := svc.Admit(bodies[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
