package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dhisq/internal/service"
)

// TestClusterProxyFollowUp pins the cluster follow-up contract: a job
// submitted through a non-owner shard must remain reachable through that
// same entry shard — plain poll, long-poll, and NDJSON stream — even
// though the job lives on another shard's per-shard ID space. The entry
// shard routes each follow-up by the owner's prefix on the ID; an ID
// without a member's prefix is served locally, so an unknown one 404s.
func TestClusterProxyFollowUp(t *testing.T) {
	urls, _, _ := testCluster(t, 3)
	cl := clusterOf(t, urls)

	// Find a family owned by a shard other than shard 0, the entry shard.
	var req service.Submission
	var owner string
	for n := 3; n <= 8; n++ {
		f := service.Submission{QASM: ghzSized(n), Request: service.Request{Shots: 10, Seed: 7}}
		fp := routeKey(t, f)
		if o := cl.route(fp); o != urls[0] {
			req, owner = f, o
			break
		}
	}
	if owner == "" {
		t.Fatal("all families hashed to shard 0 — routing balance is broken")
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
// header-dropping bug: a relayed submission must carry every upstream
// header through the hop (the hop once wrote only its own).
func TestForwardRelaysUpstreamHeaders(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "abc")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-000007","state":"queued"}`)
	}))
	defer upstream.Close()

	rec := httptest.NewRecorder()
	relay(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", nil), upstream.URL, []byte(`{}`))

	if rec.Code != http.StatusAccepted {
		t.Fatalf("relay answered %d, want 202", rec.Code)
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
}

// TestFollowUpOfJobNeverForwarded: a follow-up is routed by the owner's
// prefix on the job ID, so a job posted straight to its owner is reachable
// through every other shard — poll, long-poll and stream each answer 200
// with the owner's own bytes — though no other shard ever saw it.
func TestFollowUpOfJobNeverForwarded(t *testing.T) {
	urls, _, _ := testCluster(t, 3)
	cl := clusterOf(t, urls)
	sub := service.Submission{QASM: ghzSized(5), Request: service.Request{Shots: 10, Seed: 7}}
	owner := cl.route(routeKey(t, sub))
	body, _ := json.Marshal(sub)
	resp, err := http.Post(owner+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to owner answered %d: %v", resp.StatusCode, acc)
	}
	id := acc["id"]
	if st := getJobAt(t, owner, id); st.State != "done" {
		t.Fatalf("job finished %q: %s", st.State, st.Err)
	}

	get := func(base, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	for _, path := range []string{"", "?wait=1", "/stream"} {
		_, want := get(owner, path)
		for _, via := range urls {
			if via == owner {
				continue
			}
			code, got := get(via, path)
			if code != http.StatusOK || got != want {
				t.Errorf("GET %s%s via %s: %d %q, want the owner's 200 %q", id, path, via, code, got, want)
			}
		}
	}
}

// oneHopCluster is a -cluster entry shard whose only peer is upstream; id
// is a job ID carrying upstream's prefix, so follow-ups for it are
// relayed there.
func oneHopCluster(t *testing.T, upstream *httptest.Server) (entry, id string) {
	t.Helper()
	svc := service.New(service.Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(svc.Close)
	var handler http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	cl, err := newCluster(ts.URL+","+upstream.URL, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	handler = newHandler(svc, cl)
	return ts.URL, shardPrefix(upstream.URL) + "-job-000000"
}

// TestRelayedReadOutlivesSubmitBound: a relayed long-poll or stream lives
// as long as its reader, however long the owner takes, while a relayed
// submission stays bounded by submitTimeout. The bound is shortened here;
// the owner answers the reads only after it has passed.
func TestRelayedReadOutlivesSubmitBound(t *testing.T) {
	defer func(d time.Duration) { submitTimeout = d }(submitTimeout)
	submitTimeout = 50 * time.Millisecond
	late := 4 * submitTimeout
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			fmt.Fprintln(w, `{"point":{"index":0}}`)
			w.(http.Flusher).Flush()
		}
		time.Sleep(late)
		fmt.Fprintln(w, `{"job":{"state":"done"}}`)
	}))
	defer upstream.Close()
	entry, id := oneHopCluster(t, upstream)

	for _, path := range []string{"?wait=1", "/stream"} {
		resp, err := http.Get(entry + "/v1/jobs/" + id + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(string(b), `{"job":{"state":"done"}}`+"\n") {
			t.Errorf("relayed %s past the submit bound: %d %q %v", path, resp.StatusCode, b, err)
		}
	}

	rec := httptest.NewRecorder()
	relay(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", nil), upstream.URL, []byte(`{}`))
	if rec.Code != http.StatusBadGateway {
		t.Errorf("relayed submission past its bound answered %d, want 502", rec.Code)
	}
}

// TestRelayCancelsUpstream: a reader that hangs up mid-hop cancels the
// owner's side of it, instead of leaving the owner serving nobody.
func TestRelayCancelsUpstream(t *testing.T) {
	arrived, gone := make(chan struct{}), make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		<-r.Context().Done()
		close(gone)
	}))
	defer upstream.Close()
	entry, id := oneHopCluster(t, upstream)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, entry+"/v1/jobs/"+id+"?wait=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-arrived
	cancel()
	select {
	case <-gone:
	case <-time.After(10 * time.Second):
		t.Fatal("the owner's request outlived the cancelled reader's")
	}
	<-done
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
