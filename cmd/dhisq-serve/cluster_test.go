package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/service"
	"dhisq/internal/store"
)

// GET /v1/jobs/{id}/stream delivers one NDJSON point line per sweep
// point and exactly one terminal job line, last. The streamed points
// agree with the terminal summary's Points — streaming changes delivery,
// not results.
func TestStreamEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	id, resp := postJob(t, ts, service.Submission{
		QASM: paramQASM,
		Request: service.Request{
			Shots: 10,
			Seed:  5,
			Sweep: []map[string]float64{
				{"theta0": 0.1, "theta1": 0.2},
				{"theta0": 1.1, "theta1": 2.2},
				{"theta0": 2.1, "theta1": 0.4},
				{"theta0": 0.7, "theta1": 1.9},
			},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, want 200", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}

	var points []service.PointStatus
	var terminal *jobBody
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		if terminal != nil {
			t.Fatalf("line after the terminal job summary: %s", sc.Text())
		}
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Point != nil && line.Job == nil:
			points = append(points, *line.Point)
		case line.Job != nil && line.Point == nil:
			terminal = line.Job
		default:
			t.Fatalf("line is neither a point nor a job: %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal == nil {
		t.Fatal("stream ended without a terminal job line")
	}
	if terminal.State != "done" {
		t.Fatalf("job finished %q: %s", terminal.State, terminal.Err)
	}
	if len(points) != 4 || len(terminal.Points) != 4 {
		t.Fatalf("streamed %d points, summary holds %d, want 4", len(points), len(terminal.Points))
	}
	seen := make(map[int]bool)
	for _, p := range points {
		if p.Index < 0 || p.Index >= 4 || seen[p.Index] {
			t.Fatalf("bad or duplicate point index %d", p.Index)
		}
		seen[p.Index] = true
		if !reflect.DeepEqual(p, terminal.Points[p.Index]) {
			t.Fatalf("streamed point %d differs from summary point", p.Index)
		}
	}

	// Unknown jobs 404 before the stream commits to a 200.
	r2, err := http.Get(ts.URL + "/v1/jobs/job-424242/stream")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream status %d, want 404", r2.StatusCode)
	}
}

// storeServer is one daemon "process" for the crash/restart test: its own
// service, its own private compile cache, and a persistent store over dir.
func storeServer(t *testing.T, dir string) (*httptest.Server, *service.Service, *artifact.Cache) {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	arts := artifact.New(32)
	arts.SetStore(st)
	svc := service.New(service.Config{Workers: 2, QueueDepth: 8, Artifacts: arts})
	ts := httptest.NewServer(newHandler(svc, nil))
	return ts, svc, arts
}

// The restart-warm contract, end to end over the wire: a daemon compiles
// jobs and spills the artifacts; the process is torn down (server closed,
// service closed, cache garbage — only the store directory survives); a
// fresh daemon over the same directory then serves the same jobs with
// ZERO fresh compiles (Misses stays 0 — restores are Hits+StoreHits, by
// construction) and byte-identical histograms.
func TestCrashRestartStoreWarm(t *testing.T) {
	dir := t.TempDir()

	jobs := []service.Submission{
		{QASM: ghzQASM, Request: service.Request{Shots: 50, Seed: 11}},
		{Bench: "bv_n400", Scale: 16, Request: service.Request{Shots: 20, Seed: 3}},
		{QASM: paramQASM, Request: service.Request{Shots: 10, Seed: 5, Sweep: []map[string]float64{
			{"theta0": 0.1, "theta1": 0.2},
			{"theta0": 1.1, "theta1": 2.2},
		}}},
		// A 2-chip artifact: its teleport-correction bits sit after the
		// public ones, so a restore that loses Compiled.PublicBits grows
		// the histogram keys (store.Version 2 did).
		{Bench: "dvqe", Request: service.Request{Shots: 20, Seed: 7, Chips: 2, Placement: "interaction"}},
	}

	run := func(ts *httptest.Server) []jobBody {
		out := make([]jobBody, len(jobs))
		for i, req := range jobs {
			id, resp := postJob(t, ts, req)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("job %d submit: %d", i, resp.StatusCode)
			}
			out[i] = getJob(t, ts, id, true)
			if out[i].State != "done" {
				t.Fatalf("job %d: state %q error %q", i, out[i].State, out[i].Err)
			}
		}
		return out
	}

	// Cold process: every family compiles once and spills to disk.
	ts1, svc1, arts1 := storeServer(t, dir)
	cold := run(ts1)
	st1 := arts1.Stats()
	if st1.Misses == 0 || st1.Spills != st1.Misses {
		t.Fatalf("cold process: misses=%d spills=%d, want every compile spilled", st1.Misses, st1.Spills)
	}

	// Crash: the process dies. Nothing in memory survives — only dir.
	ts1.Close()
	svc1.Close()

	// Restarted process over the same directory: the repeat jobs restore
	// from the store instead of compiling.
	ts2, svc2, arts2 := storeServer(t, dir)
	defer func() { ts2.Close(); svc2.Close() }()
	warm := run(ts2)
	st2 := arts2.Stats()
	if st2.Misses != 0 {
		t.Fatalf("restarted process compiled %d times, want 0 (store-warm)", st2.Misses)
	}
	if st2.StoreHits != st1.Misses {
		t.Fatalf("restarted process restored %d artifacts, want %d", st2.StoreHits, st1.Misses)
	}

	// Same artifacts, same seeds: byte-identical results across the crash.
	for i := range jobs {
		if cold[i].Fingerprint != warm[i].Fingerprint {
			t.Fatalf("job %d fingerprint changed across restart", i)
		}
		if !reflect.DeepEqual(cold[i].Histogram, warm[i].Histogram) {
			t.Fatalf("job %d histogram changed across restart:\ncold %v\nwarm %v", i, cold[i].Histogram, warm[i].Histogram)
		}
		if !reflect.DeepEqual(cold[i].Points, warm[i].Points) {
			t.Fatalf("job %d sweep points changed across restart", i)
		}
		if !warm[i].CacheHit {
			t.Errorf("job %d not reported cache_hit after restart", i)
		}
	}

	// The wire-visible stats agree: /v1/stats on the restarted daemon
	// shows store_hits and zero misses.
	r, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats service.Stats
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.StoreHits == 0 || stats.Cache.Misses != 0 {
		t.Fatalf("wire stats after restart: %+v", stats.Cache)
	}
}

// testCluster builds an N-shard httptest cluster, each shard a full
// daemon with its own service and private compile cache. The chicken/egg
// (cluster members are the URLs, URLs exist only after server creation) is
// resolved by installing the real handlers after all servers are up —
// exactly what a deployment does when it passes every shard the same
// -cluster list at boot.
func testCluster(t *testing.T, n int) (urls []string, svcs []*service.Service, arts []*artifact.Cache) {
	t.Helper()
	handlers := make([]http.Handler, n)
	urls = make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	list := strings.Join(urls, ",")
	for i := 0; i < n; i++ {
		cl, err := newCluster(list, urls[i])
		if err != nil {
			t.Fatal(err)
		}
		a := artifact.New(32)
		svc := service.New(service.Config{Workers: 2, QueueDepth: 16, Artifacts: a, IDPrefix: cl.jobIDPrefix()})
		t.Cleanup(svc.Close)
		handlers[i] = newHandler(svc, cl)
		svcs = append(svcs, svc)
		arts = append(arts, a)
	}
	return urls, svcs, arts
}

func ghzSized(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\ncreg c[%d];\nh q[0];\n", n, n)
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "cx q[%d],q[%d];\n", i, i+1)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "measure q[%d] -> c[%d];\n", i, i)
	}
	return b.String()
}

// After running mixed families twice each, all submitted through shard 0,
// the cache work concentrates per shard: every job lands on its
// routed owner, which the submit response names, and every family
// compiled exactly once cluster-wide, on its owner.
func TestClusterRoutingConcentratesCache(t *testing.T) {
	urls, svcs, arts := testCluster(t, 3)
	cl := clusterOf(t, urls)

	// Mixed families: enough distinct structural keys that (with high
	// probability) more than one shard owns work.
	families := make([]service.Submission, 0, 6)
	for n := 3; n <= 8; n++ {
		families = append(families, service.Submission{QASM: ghzSized(n), Request: service.Request{Shots: 10, Seed: 7}})
	}
	owners := make([]string, len(families))
	ownedBy := make(map[string]int)
	for i, f := range families {
		owners[i] = cl.route(routeKey(t, f))
		ownedBy[owners[i]]++
	}
	if ownedBy[urls[0]] == len(families) {
		t.Fatal("all 6 families hashed to shard 0 — routing balance is broken")
	}

	for round := 0; round < 2; round++ {
		for i, f := range families {
			body, _ := json.Marshal(f)
			resp, err := http.Post(urls[0]+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var acc map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("family %d round %d: %d (%v)", i, round, resp.StatusCode, acc)
			}
			if acc["shard"] != owners[i] {
				t.Fatalf("family %d accepted by %q, route says %q", i, acc["shard"], owners[i])
			}
			jr := getJobAt(t, acc["shard"], acc["id"])
			if jr.State != "done" {
				t.Fatalf("family %d round %d: state %q error %q", i, round, jr.State, jr.Err)
			}
			if jr.Shard != owners[i] {
				t.Fatalf("family %d job response names shard %q, want %q", i, jr.Shard, owners[i])
			}
		}
	}

	// Cache-hit concentration: each family compiled exactly once
	// cluster-wide — on its owner — and the repeat round was all hits.
	for i, a := range arts {
		if got, want := a.Stats().Misses, uint64(ownedBy[urls[i]]); got != want {
			t.Errorf("shard %d compiled %d families, owns %d — keys leaked across shards", i, got, want)
		}
		if ran, want := svcs[i].Stats().Completed, uint64(2*ownedBy[urls[i]]); ran != want {
			t.Errorf("shard %d ran %d jobs, route assigns %d", i, ran, want)
		}
	}
}

// A misrouted submission is forwarded server-side — the client sees a
// plain 202 whose "shard" field names the owner, and the job runs there.
func TestClusterProxyRouting(t *testing.T) {
	urls, svcs, _ := testCluster(t, 3)
	cl := clusterOf(t, urls)

	// Find a family NOT owned by shard 0, so the submission must proxy.
	var req service.Submission
	var owner string
	for n := 3; n <= 12; n++ {
		f := service.Submission{QASM: ghzSized(n), Request: service.Request{Shots: 10, Seed: 7}}
		fp := routeKey(t, f)
		if o := cl.route(fp); o != urls[0] {
			req, owner = f, o
			break
		}
	}
	if owner == "" {
		t.Fatal("every probed family hashed to shard 0 — routing balance is broken")
	}

	body, _ := json.Marshal(req)
	resp, err := http.Post(urls[0]+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("proxied submit answered %d: %v", resp.StatusCode, acc)
	}
	if acc["shard"] != owner {
		t.Fatalf("proxied submit names shard %q, route says %q", acc["shard"], owner)
	}
	jr := getJobAt(t, owner, acc["id"])
	if jr.State != "done" {
		t.Fatalf("proxied job: state %q error %q", jr.State, jr.Err)
	}

	// The job ran on the owner, not the shard the client spoke to.
	var ownerSvc *service.Service
	for i, u := range urls {
		if u == owner {
			ownerSvc = svcs[i]
		}
	}
	if ownerSvc.Stats().Completed == 0 {
		t.Fatal("owner shard ran nothing — the proxy executed locally")
	}
}

// getJobAt long-polls a job on an arbitrary shard base URL.
func getJobAt(t *testing.T, base, id string) jobBody {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/jobs/%s: %d", base, id, resp.StatusCode)
	}
	var jr jobBody
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// Flag-parsing contract of -cluster/-self: canonicalization adds
// the http scheme and strips trailing slashes, a list needs a member and
// self must be one, no two members may share a job-ID prefix, and the
// single-node path is a nil cluster, not an error.
func TestNewClusterFlags(t *testing.T) {
	cl, err := newCluster("", "")
	if cl != nil || err != nil {
		t.Fatalf("single-node: cl=%v err=%v, want nil/nil", cl, err)
	}
	if _, err := newCluster("", "http://a:1"); err == nil {
		t.Error("-self without -cluster accepted")
	}
	if _, err := newCluster("a:1,b:2", ""); err == nil {
		t.Error("-cluster without -self accepted")
	}
	if _, err := newCluster("a:1,b:2", "c:3"); err == nil {
		t.Error("-self outside the member list accepted")
	}
	if _, err := newCluster(",", "a:1"); err == nil {
		t.Error("-cluster with no member accepted")
	}
	if _, err := newCluster("a:1,a:1", "a:1"); err == nil {
		t.Error("duplicate members accepted")
	}
	// Two members whose URLs hash to one job-ID prefix (731e0fdf) would
	// hand out one ID twice.
	if _, err := newCluster("http://10.0.206.75:8080,http://10.0.30.21:8081", "http://10.0.206.75:8080"); err == nil {
		t.Error("members sharing a job-ID prefix accepted")
	}
	if _, err := newCluster("http://", "http://"); err == nil {
		t.Error("hostless member accepted")
	}

	// Bare host:port and a trailing slash both canonicalize to one name.
	cl, err = newCluster("a:1,http://b:2/", "b:2")
	if err != nil {
		t.Fatal(err)
	}
	if cl.self != "http://b:2" {
		t.Fatalf("canonicalized self %q", cl.self)
	}
	members := cl.members
	if len(members) != 2 || members[0] != "http://a:1" || members[1] != "http://b:2" {
		t.Fatalf("canonicalized members %v", members)
	}
}

// A proxying shard whose owner is unreachable answers 502, not a hang
// and not a local execution.
func TestClusterProxyOwnerDown(t *testing.T) {
	// One live shard, one dead member. Find a family the dead member
	// owns and submit it to the live shard.
	dead := "http://127.0.0.1:1" // reserved port: connect refused immediately
	svc := service.New(service.Config{Workers: 1, QueueDepth: 4, Artifacts: artifact.New(4)})
	defer svc.Close()
	var handler http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()
	cl, err := newCluster(ts.URL+","+dead, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	handler = newHandler(svc, cl)

	for n := 3; n <= 12; n++ {
		f := service.Submission{QASM: ghzSized(n), Request: service.Request{Shots: 5, Seed: 7}}
		fp := routeKey(t, f)
		if cl.route(fp) != dead {
			continue
		}
		body, _ := json.Marshal(f)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("proxy to dead owner answered %d, want 502", resp.StatusCode)
		}
		if svc.Stats().Submitted != 0 {
			t.Fatal("misrouted job executed locally")
		}
		return
	}
	t.Skip("no probed family hashed to the dead shard")
}

// routeKey is the fingerprint a -cluster handler routes sub on: the one
// service.Resolve computes for it.
func routeKey(t *testing.T, sub service.Submission) artifact.Fingerprint {
	t.Helper()
	req, err := sub.Build()
	if err != nil {
		t.Fatal(err)
	}
	adm, err := service.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return adm.Fingerprint
}
