package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dhisq/internal/service"
)

const ghzQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
`

func newTestServer(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(newHandler(svc, nil))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts, svc
}

func postJob(t *testing.T, ts *httptest.Server, req service.Submission) (string, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["id"], resp
}

func getJob(t *testing.T, ts *httptest.Server, id string, wait bool) jobBody {
	t.Helper()
	url := ts.URL + "/v1/jobs/" + id
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var jr jobBody
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// The full request loop: submit a GHZ circuit, wait, check the
// histogram only holds the two legal outcomes, and confirm a repeat
// submission is served from cache + warm replicas.
func TestSubmitGHZEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	id, resp := postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 50, Seed: 11}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", resp.StatusCode)
	}
	if id == "" {
		t.Fatal("no job ID returned")
	}

	jr := getJob(t, ts, id, true)
	if jr.State != "done" {
		t.Fatalf("state %q, error %q", jr.State, jr.Err)
	}
	if jr.Seed != 11 {
		t.Fatalf("seed %d, want 11", jr.Seed)
	}
	total := 0
	for outcome, n := range jr.Histogram {
		if outcome != "0000" && outcome != "1111" {
			t.Fatalf("impossible GHZ outcome %q", outcome)
		}
		total += n
	}
	if total != 50 {
		t.Fatalf("histogram sums to %d, want 50", total)
	}
	if jr.Fingerprint == "" || jr.Makespan == 0 {
		t.Fatalf("missing fingerprint/makespan: %+v", jr)
	}

	// Same circuit again: byte-identical results, served warm.
	id2, _ := postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 50, Seed: 11}})
	jr2 := getJob(t, ts, id2, true)
	if jr2.State != "done" || !jr2.CacheHit {
		t.Fatalf("repeat job: state=%q cache_hit=%v", jr2.State, jr2.CacheHit)
	}
	if fmt.Sprint(jr2.Histogram) != fmt.Sprint(jr.Histogram) {
		t.Fatalf("repeat submission changed the histogram: %v vs %v", jr2.Histogram, jr.Histogram)
	}
	if jr2.Fingerprint != jr.Fingerprint {
		t.Fatal("same circuit fingerprinted differently across requests")
	}
}

// Named benchmarks run through the same endpoint.
func TestSubmitBench(t *testing.T) {
	ts, _ := newTestServer(t)
	id, resp := postJob(t, ts, service.Submission{Bench: "bv_n400", Scale: 16, Request: service.Request{Shots: 5}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", resp.StatusCode)
	}
	jr := getJob(t, ts, id, true)
	if jr.State != "done" {
		t.Fatalf("state %q, error %q", jr.State, jr.Err)
	}
}

// Malformed submissions get 400s, unknown jobs 404, bad methods 405.
func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)

	_, resp := postJob(t, ts, service.Submission{Request: service.Request{Shots: 5}}) // no circuit
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-circuit status %d, want 400", resp.StatusCode)
	}
	_, resp = postJob(t, ts, service.Submission{QASM: ghzQASM, Bench: "bv_n400", Request: service.Request{Shots: 5}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("both-sources status %d, want 400", resp.StatusCode)
	}
	_, resp = postJob(t, ts, service.Submission{QASM: "not qasm", Request: service.Request{Shots: 5}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-qasm status %d, want 400", resp.StatusCode)
	}
	_, resp = postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 0}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-shots status %d, want 400", resp.StatusCode)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/job-424242")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", r.StatusCode)
	}

	r, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs status %d, want 405", r.StatusCode)
	}
}

// /healthz and /v1/stats report liveness and cache/queue counters.
func TestHealthAndStats(t *testing.T) {
	ts, _ := newTestServer(t)

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", r.StatusCode)
	}

	id, _ := postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 10}})
	getJob(t, ts, id, true)

	r, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted < 1 || st.Completed < 1 {
		t.Fatalf("stats did not count the job: %+v", st)
	}
	if st.Cache.Capacity == 0 {
		t.Fatalf("cache stats missing: %+v", st.Cache)
	}
}

// The wire can say how often the commit tape ran: a static job's shots
// after each replica's first come off its tape, a repeat job's all do, and
// /v1/stats reports both counters under their documented names.
func TestStatsReportTape(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, ShotWorkers: 1, QueueDepth: 8})
	ts := httptest.NewServer(newHandler(svc, nil))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	for i := 0; i < 2; i++ {
		id, _ := postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 10, Seed: int64(3 + i)}})
		getJob(t, ts, id, true)
	}
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var taped, fallbacks uint64
	if err := json.Unmarshal(raw["taped_shots"], &taped); err != nil || taped != 19 {
		t.Fatalf("taped_shots on the wire: %v %d, want 19 of 20 shots", err, taped)
	}
	if err := json.Unmarshal(raw["tape_fallbacks"], &fallbacks); err != nil || fallbacks != 0 {
		t.Fatalf("tape_fallbacks on the wire: %v %d, want 0", err, fallbacks)
	}
}

// The fabric overrides must travel the wire: a tree-topology, bandwidth-1
// job congests, moves the /v1/stats net_* counters, and still returns a
// legal GHZ histogram; a bogus topology is rejected at submission.
func TestSubmitWithFabricOverrides(t *testing.T) {
	ts, svc := newTestServer(t)

	id, resp := postJob(t, ts, service.Submission{
		QASM: ghzQASM,
		Request: service.Request{
			Shots:  20,
			Seed:   5,
			Topo:   "tree",
			LinkBW: 2,
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	jr := getJob(t, ts, id, true)
	if jr.State != "done" {
		t.Fatalf("job: %+v", jr)
	}
	total := 0
	for outcome, n := range jr.Histogram {
		if outcome != "0000" && outcome != "1111" {
			t.Fatalf("impossible GHZ outcome %q", outcome)
		}
		total += n
	}
	if total != 20 {
		t.Fatalf("histogram holds %d of 20 shots", total)
	}
	st := svc.Stats()
	if st.NetMessages == 0 || st.NetStallCycles == 0 {
		t.Fatalf("wire-enabled contention moved no counters: %+v", st)
	}

	_, resp = postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 1, Topo: "hypercube"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus topology accepted: %d", resp.StatusCode)
	}
	_, resp = postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 1, LinkBW: -3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative link_bw accepted: %d", resp.StatusCode)
	}
}

// A submission naming a placement policy gets it applied, and the job
// response echoes the resolved mesh, policy, and final mapping.
func TestSubmitWithPlacement(t *testing.T) {
	ts, _ := newTestServer(t)

	id, resp := postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 5, Seed: 3, Placement: "interaction"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", resp.StatusCode)
	}
	jr := getJob(t, ts, id, true)
	if jr.State != "done" {
		t.Fatalf("state %q, error %q", jr.State, jr.Err)
	}
	if jr.Placement != "interaction" {
		t.Fatalf("placement %q, want interaction", jr.Placement)
	}
	if jr.MeshW != 2 || jr.MeshH != 2 {
		t.Fatalf("mesh %dx%d, want 2x2", jr.MeshW, jr.MeshH)
	}
	if len(jr.Mapping) != 4 {
		t.Fatalf("mapping %v, want 4 entries", jr.Mapping)
	}

	// Identity default: policy echoed, mapping omitted.
	id2, _ := postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 5, Seed: 3}})
	jr2 := getJob(t, ts, id2, true)
	if jr2.Placement != "identity" || jr2.Mapping != nil {
		t.Fatalf("default job echoed placement %q mapping %v", jr2.Placement, jr2.Mapping)
	}
	if jr2.Fingerprint == jr.Fingerprint {
		t.Fatal("placement variants shared an artifact fingerprint")
	}
}

// An unknown placement policy is a 400 at submission time.
func TestSubmitRejectsUnknownPlacement(t *testing.T) {
	ts, _ := newTestServer(t)
	_, resp := postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 5, Placement: "bogus"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST status %d, want 400", resp.StatusCode)
	}
}

// ?wait is a real boolean now: wait=0 (and wait=false) must return the
// current state immediately rather than long-polling — the regression was
// "any non-empty wait long-polls", so ?wait=0 blocked until completion.
// Unparseable wait values are a 400.
func TestWaitParamParsing(t *testing.T) {
	ts, _ := newTestServer(t)

	// Many shots so the job is very likely still running when we poll.
	id, resp := postJob(t, ts, service.Submission{Bench: "qft_n30", Request: service.Request{Shots: 400, Seed: 7}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	sawEarly := false
	for _, v := range []string{"0", "false"} {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=" + v)
		if err != nil {
			t.Fatal(err)
		}
		var jr jobBody
		if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("wait=%s status %d", v, r.StatusCode)
		}
		if jr.State != "done" {
			sawEarly = true // returned without blocking for completion
		}
	}
	if !sawEarly {
		t.Log("note: job finished before the non-blocking polls (slow host); semantics still covered by wait=bogus below")
	}

	for _, v := range []string{"bogus", "2", "yes"} {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=" + v)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%s status %d, want 400", v, r.StatusCode)
		}
	}

	// wait=true long-polls to completion like wait=1.
	r, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var jr jobBody
	if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.State != "done" {
		t.Fatalf("wait=true returned before completion: %q (%s)", jr.State, jr.Err)
	}
}

const paramQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
rz(theta0) q[0];
cp(theta1) q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`

// Parameterized circuits travel the wire: "params" binds a skeleton,
// "sweep" runs many bindings in one job against one compiled artifact,
// and /v1/stats reports the binding-layer counters.
func TestSubmitParamsAndSweep(t *testing.T) {
	ts, svc := newTestServer(t)

	// A skeleton without params is a 400.
	_, resp := postJob(t, ts, service.Submission{QASM: paramQASM, Request: service.Request{Shots: 5}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unbound skeleton accepted: %d", resp.StatusCode)
	}

	id, resp := postJob(t, ts, service.Submission{
		QASM: paramQASM,
		Request: service.Request{
			Shots:  20,
			Seed:   5,
			Params: map[string]float64{"theta0": 0.5, "theta1": 1.25},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("params submit: %d", resp.StatusCode)
	}
	jr := getJob(t, ts, id, true)
	if jr.State != "done" {
		t.Fatalf("params job: %+v", jr)
	}
	total := 0
	for _, n := range jr.Histogram {
		total += n
	}
	if total != 20 {
		t.Fatalf("params histogram holds %d of 20 shots", total)
	}

	sweepID, resp := postJob(t, ts, service.Submission{
		QASM: paramQASM,
		Request: service.Request{
			Shots: 10,
			Seed:  5,
			Sweep: []map[string]float64{
				{"theta0": 0.1, "theta1": 0.2},
				{"theta0": 1.1, "theta1": 2.2},
				{"theta0": 2.1, "theta1": 0.4},
			},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d", resp.StatusCode)
	}
	sj := getJob(t, ts, sweepID, true)
	if sj.State != "done" {
		t.Fatalf("sweep job: %+v", sj)
	}
	if len(sj.Points) != 3 || len(sj.Histogram) != 0 {
		t.Fatalf("sweep response malformed: %d points, histogram %v", len(sj.Points), sj.Histogram)
	}
	for k, pt := range sj.Points {
		n := 0
		for _, c := range pt.Histogram {
			n += c
		}
		if n != 10 || pt.Params["theta0"] == 0 {
			t.Fatalf("sweep point %d malformed: %+v", k, pt)
		}
	}
	// Params job and sweep share the structural fingerprint (one skeleton).
	if sj.Fingerprint != jr.Fingerprint {
		t.Fatal("sweep and params jobs fingerprinted different skeletons")
	}
	st := svc.Stats()
	if st.Binds < 4 || st.BindHits < 1 {
		t.Fatalf("binding counters not reported: binds=%d bind_hits=%d", st.Binds, st.BindHits)
	}
}

// TestReadBody: the submit body is buffered in one allocation sized from
// Content-Length, a missing or lying length falls back to growth, and the
// 16 MiB cap still holds.
func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("cx q[0],q[1];\n"), 5000) // ~68 KB, a qft_n30's worth
	read := func(body io.Reader, declared int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
		r.ContentLength = declared
		return readBody(httptest.NewRecorder(), r)
	}

	got, err := read(bytes.NewReader(payload), int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("declared length: err %v, %d bytes back", err, len(got))
	}
	if c := cap(got); c >= 2*len(payload) { // a regrowth doubles; a size class rounds up a little
		t.Errorf("declared length: buffer grew to %d bytes for a %d-byte body", c, len(payload))
	}
	allocs := testing.AllocsPerRun(10, func() {
		r := &http.Request{Body: io.NopCloser(bytes.NewReader(payload)), ContentLength: int64(len(payload))}
		if _, err := readBody(nil, r); err != nil {
			t.Fatal(err)
		}
	})
	// The buffer, plus the request, the two readers and MaxBytesReader's.
	if allocs > 5 {
		t.Errorf("declared length: %.0f allocations per read, want one buffer and no regrowth", allocs)
	}

	if got, err = read(bytes.NewReader(payload), -1); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("unknown length: err %v, %d bytes back", err, len(got))
	}
	// A length is a claim: 16 MiB declared, 3 bytes sent, ~1 MiB reserved.
	if got, err = read(strings.NewReader("{}\n"), maxSubmitBytes); err != nil || string(got) != "{}\n" {
		t.Fatalf("overstated length: err %v, body %q", err, got)
	}
	if c := cap(got); c > 2<<20 {
		t.Errorf("overstated length: reserved %d bytes on the client's word", c)
	}
	if _, err = read(bytes.NewReader(make([]byte, maxSubmitBytes+1)), -1); err == nil {
		t.Fatal("a body over the cap was read without error")
	}
}

// A body over maxSubmitBytes is a 413 naming the cap, not a 400.
func TestOversizedBodyIs413(t *testing.T) {
	ts, svc := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(make([]byte, maxSubmitBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(out["error"], "request body too large") {
		t.Fatalf("oversized body: %d %q, want 413 naming the cap", resp.StatusCode, out["error"])
	}
	if st := svc.Stats(); st.Submitted != 0 {
		t.Fatalf("oversized body admitted %d jobs", st.Submitted)
	}
}
