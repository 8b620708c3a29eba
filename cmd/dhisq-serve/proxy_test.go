package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dhisq/internal/service"
)

// TestClusterProxyFollowUp pins the proxy-mode follow-up contract: a job
// submitted through a non-owner shard must remain reachable through that
// same entry shard — plain poll, long-poll, and NDJSON stream — even
// though the job lives on another shard's per-shard ID space. This was
// broken before the owner table: the entry shard answered 404 for every
// follow-up on a job it had itself proxied.
func TestClusterProxyFollowUp(t *testing.T) {
	urls, _, _ := testCluster(t, 3, true)
	ring, err := service.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}

	// Find a family owned by a shard other than shard 0, the entry shard.
	var req service.Submission
	var owner string
	for n := 3; n <= 8; n++ {
		f := service.Submission{QASM: ghzSized(n), Request: service.Request{Shots: 10, Seed: 7}}
		fp := routeKey(t, f)
		if o := ring.Route(fp); o != urls[0] {
			req, owner = f, o
			break
		}
	}
	if owner == "" {
		t.Fatal("all families hashed to shard 0 — ring balance is broken")
	}

	// Submit through the entry shard: proxied transparently, answered 202
	// with the owner named in X-Dhisq-Shard.
	body, _ := json.Marshal(req)
	resp, err := http.Post(urls[0]+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("proxied submit answered %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Dhisq-Shard"); got != owner {
		t.Fatalf("submit X-Dhisq-Shard %q, want owner %q", got, owner)
	}
	var acc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := acc["id"]
	if id == "" {
		t.Fatal("proxied submit returned no job id")
	}

	// Long-poll via the entry shard rides the proxy to the owner.
	jr := getJobAt(t, urls[0], id)
	if jr.State != "done" {
		t.Fatalf("proxied wait finished %q: %s", jr.State, jr.Err)
	}

	// Plain poll via the entry shard too, with the owner surfaced.
	pr, err := http.Get(urls[0] + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if pr.StatusCode != http.StatusOK {
		pr.Body.Close()
		t.Fatalf("proxied poll answered %d, want 200", pr.StatusCode)
	}
	if got := pr.Header.Get("X-Dhisq-Shard"); got != owner {
		pr.Body.Close()
		t.Fatalf("poll X-Dhisq-Shard %q, want owner %q", got, owner)
	}
	var polled jobBody
	if err := json.NewDecoder(pr.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if polled.ID != id || polled.State != "done" {
		t.Fatalf("proxied poll returned %q/%q, want %q/done", polled.ID, polled.State, id)
	}

	// The stream follows the same route: NDJSON from the owner, relayed
	// through the entry shard, ending in the terminal job line.
	sr, err := http.Get(urls[0] + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("proxied stream answered %d, want 200", sr.StatusCode)
	}
	if ct := sr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("proxied stream content type %q, want application/x-ndjson", ct)
	}
	var terminal *jobBody
	sc := bufio.NewScanner(sr.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad proxied NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Job != nil {
			terminal = line.Job
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal == nil || terminal.State != "done" {
		t.Fatalf("proxied stream terminal line: %+v", terminal)
	}

	// The sanity leg: the job really lives on the owner, and an id nobody
	// ever proxied still 404s on the entry shard.
	direct, err := http.Get(owner + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	direct.Body.Close()
	if direct.StatusCode != http.StatusOK {
		t.Fatalf("owner itself answered %d for job %s", direct.StatusCode, id)
	}
	unknown, err := http.Get(urls[0] + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	unknown.Body.Close()
	if unknown.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job answered %d on the entry shard, want 404", unknown.StatusCode)
	}
}

// TestForwardRelaysUpstreamHeaders is the regression test for the
// header-dropping bug: a proxied submission must carry every upstream
// header through the hop (forward used to write only its own), and the
// entry shard must record the owner for follow-up routing.
func TestForwardRelaysUpstreamHeaders(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "abc")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-000007","state":"queued"}`)
	}))
	defer upstream.Close()

	cl := &cluster{proxy: true, client: upstream.Client()}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	cl.forward(rec, r, upstream.URL, []byte(`{}`))

	if rec.Code != http.StatusAccepted {
		t.Fatalf("forward answered %d, want 202", rec.Code)
	}
	if got := rec.Header().Get("X-Custom"); got != "abc" {
		t.Fatalf("upstream X-Custom header lost in the proxy hop: %q", got)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("upstream Content-Type lost: %q", got)
	}
	if got := rec.Header().Get("X-Dhisq-Shard"); got != upstream.URL {
		t.Fatalf("X-Dhisq-Shard %q, want %q", got, upstream.URL)
	}
	if !strings.Contains(rec.Body.String(), `"id":"job-000007"`) {
		t.Fatalf("upstream body not relayed: %q", rec.Body.String())
	}
	if got := cl.jobOwner("job-000007"); got != upstream.URL {
		t.Fatalf("owner table recorded %q, want %q", got, upstream.URL)
	}
}

// failingStreamWriter fails every Write past the first successful one —
// a client that disconnected mid-stream. It counts the attempts so the
// test can pin that streamJob stops after the first failure instead of
// encoding (and failing) every remaining line.
type failingStreamWriter struct {
	hdr    http.Header
	writes int
}

func (f *failingStreamWriter) Header() http.Header {
	if f.hdr == nil {
		f.hdr = make(http.Header)
	}
	return f.hdr
}

func (f *failingStreamWriter) WriteHeader(int) {}

func (f *failingStreamWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > 1 {
		return 0, errors.New("client gone")
	}
	return len(p), nil
}

// TestStreamStopsAfterWriteError: a mid-stream disconnect must stop the
// emit loop at the first failed write. Before the fix streamJob ignored
// enc.Encode's error and kept encoding every remaining point plus the
// terminal summary into a dead connection.
func TestStreamStopsAfterWriteError(t *testing.T) {
	svc := service.New(service.Config{Workers: 2, QueueDepth: 8})
	defer svc.Close()

	sreq, err := service.Submission{
		QASM: paramQASM,
		Request: service.Request{
			Shots: 4,
			Seed:  3,
			Sweep: []map[string]float64{
				{"theta0": 0.1, "theta1": 0.2},
				{"theta0": 1.1, "theta1": 2.2},
				{"theta0": 2.1, "theta1": 0.4},
				{"theta0": 0.7, "theta1": 1.9},
			},
		},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(sreq)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := svc.Wait(id); !ok || st.State != service.StateDone {
		t.Fatalf("sweep job did not finish: %+v", st)
	}

	// The job is done, so the stream delivers 4 point lines + 1 terminal
	// line back to back. The writer accepts line one and fails from line
	// two on: exactly one failed attempt may follow the success.
	w := &failingStreamWriter{}
	r := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/stream", nil)
	streamJob(w, r, svc, id,
		func(st service.JobStatus) jobBody { return jobBody{JobStatus: st} },
		func(http.ResponseWriter, int, error) {})

	if w.writes != 2 {
		t.Fatalf("streamJob attempted %d writes, want 2 (one success, one failure, then silence)", w.writes)
	}
}
