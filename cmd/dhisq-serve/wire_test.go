package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/service"
)

// post sends a raw body to POST /v1/jobs and returns the status and answer.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(answer)
}

// A misspelt option is a 400 naming the field, not a job that silently ran
// on the default; the same body spelt right is accepted. Trailing bytes
// after the object stay an error, as they were under json.Unmarshal.
func TestUnknownFieldRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	code, answer := post(t, ts.URL, `{"bench":"dvqe","shots":2,"chips":2,"placment":"interaction"}`)
	if code != http.StatusBadRequest || !strings.Contains(answer, `unknown field \"placment\"`) {
		t.Fatalf("typo body: status %d, answer %s; want 400 naming the field", code, answer)
	}
	if code, answer = post(t, ts.URL, `{"bench":"dvqe","shots":2,"chips":2,"placement":"interaction"}`); code != http.StatusAccepted {
		t.Fatalf("correct body: status %d, answer %s; want 202", code, answer)
	}
	if code, _ = post(t, ts.URL, `{"bench":"dvqe","shots":2} {"shots":3}`); code != http.StatusBadRequest {
		t.Fatalf("trailing data: status %d, want 400", code)
	}
}

// The job response is service.JobStatus encoded as it stands. This is the
// body the daemon produced for this job before JobStatus carried the wire
// names (jobResponse + toResponse): same fields, same order, same omitted
// zeros — only the fingerprint's value moved, with keyVersion.
func TestJobResponseBytesPinned(t *testing.T) {
	// A private artifact cache: cache_hit must not depend on test order.
	svc := service.New(service.Config{Workers: 1, Artifacts: artifact.New(4)})
	ts := httptest.NewServer(newHandler(svc, "", ""))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	id, _ := postJob(t, ts, service.Submission{QASM: ghzQASM, Request: service.Request{Shots: 50, Seed: 11}})
	fp := getJob(t, ts, id, true).Fingerprint
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	want := `{"id":"` + id + `","state":"done","shots":50,"seed":11,"fingerprint":"` + fp +
		`","cache_hit":false,"batched":false,"mesh_w":2,"mesh_h":2,"placement":"identity","schedule":"fixed",` +
		`"makespan_cycles":129,"histogram":{"0000":27,"1111":23}}` + "\n"
	if string(got) != want {
		t.Fatalf("job response moved:\n got %swant %s", got, want)
	}
}

// The stats response is service.Stats encoded as it stands, with no key
// omitted at zero: an idle daemon's body is every wire name in order. The
// sibling of TestJobResponseBytesPinned for /v1/stats.
func TestStatsResponseBytesPinned(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, Artifacts: artifact.New(4)})
	ts := httptest.NewServer(newHandler(svc, "", ""))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	want := `{"submitted":0,"completed":0,"failed":0,"rejected":0,"queue_depth":0,"running":0,` +
		`"batched_jobs":0,"taped_shots":0,"tape_fallbacks":0,"binds":0,"bind_hits":0,"pooled_replicas":0,` +
		`"artifact_cache":{"hits":0,"misses":0,"evictions":0,"store_hits":0,"store_misses":0,` +
		`"spills":0,"spill_errors":0,"size":0,"capacity":4},` +
		`"net_total_stall_cycles":0,"net_max_queue":0,"net_messages":0,"net_overflows":0,` +
		`"net_collective_ops":0,"net_collective_stall_cycles":0,"replacements":0}` + "\n"
	if string(got) != want {
		t.Fatalf("stats response moved:\n got %swant %s", got, want)
	}
}

// serveOn runs newServer's server on a loopback listener with the header
// timeout shortened (ten seconds is the production value, checked here).
func serveOn(t *testing.T, h http.Handler, headerTimeout time.Duration) string {
	t.Helper()
	srv := newServer("", h)
	if srv.ReadHeaderTimeout != 10*time.Second || srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("newServer timeouts: header %v, read %v, write %v; want 10s and no read/write bound",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// A connection that goes quiet half-way through its request line is closed
// by the server, not held forever.
func TestHalfOpenRequestIsClosed(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	addr := serveOn(t, newHandler(svc, "", ""), 100*time.Millisecond)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rest, err := io.ReadAll(conn) // returns once the server closes its side
	if err != nil {
		t.Fatalf("server kept a half-sent request open: %v", err)
	}
	if bytes.Contains(rest, []byte("200 OK")) {
		t.Fatalf("half a request line was answered: %q", rest)
	}
}

// The header timeout bounds the headers only: a ?wait=1 long-poll that
// outlives it many times over still gets its answer.
func TestLongPollOutlivesHeaderTimeout(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	const headerTimeout = 20 * time.Millisecond
	base := "http://" + serveOn(t, newHandler(svc, "", ""), headerTimeout)

	for shots := 400; ; shots *= 4 {
		code, answer := post(t, base, `{"bench":"qft_n30","shots":`+strconv.Itoa(shots)+`,"seed":7}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, answer)
		}
		id := answer[strings.Index(answer, "job-"):][:len("job-000000")]
		start := time.Now()
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=1")
		if err != nil {
			t.Fatalf("long-poll cut after %v: %v", time.Since(start), err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Contains(body, []byte(`"state":"done"`)) {
			t.Fatalf("long-poll after %v: err %v, body %s", time.Since(start), err, body)
		}
		if time.Since(start) > 5*headerTimeout || shots > 100000 {
			return
		}
		// The host ran the job faster than the timeout: ask for more work.
	}
}

// A request for more shots than a job may hold is a 400 at the door, not a
// job that queues and then takes the daemon down allocating its records:
// the daemon still answers afterwards.
func TestOversizedJobRefused(t *testing.T) {
	ts, _ := newTestServer(t)
	bell, _ := json.Marshal("qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")
	code, answer := post(t, ts.URL, `{"qasm":`+string(bell)+`,"shots":10000000}`)
	if code != http.StatusBadRequest || !strings.Contains(answer, "MaxJobShots") {
		t.Fatalf("10M shots: status %d, answer %s; want 400 naming MaxJobShots", code, answer)
	}
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the refusal: status %d", r.StatusCode)
	}
}
