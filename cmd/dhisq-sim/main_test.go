package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dhisq/internal/machine"
	"dhisq/internal/service"
)

// dvqe builds a submission of the dvqe benchmark around the given options.
func dvqe(req service.Request) service.Submission {
	if req.Shots == 0 {
		req.Shots = 1
	}
	return service.Submission{Bench: "dvqe", Scale: 1, Request: req}
}

// invalidSubmissions is every input both modes must reject, with a fragment
// of the message service.Resolve (or Submission.Build) gives for it.
var invalidSubmissions = []struct {
	name    string
	sub     service.Submission
	wantSub string
}{
	{"topology", dvqe(service.Request{Topo: "hypercube"}), "topology"},
	{"placement", dvqe(service.Request{Placement: "bogus-policy"}), "placement"},
	{"link-bw", dvqe(service.Request{LinkBW: -3}), "link_bw"},
	{"chips", dvqe(service.Request{Chips: -1}), "negative chip count -1"},
	{"chips-exceed-qubits", dvqe(service.Request{Chips: 17}), "17 chips exceed 16 qubits"},
	{"chips-with-mapping", service.Submission{Bench: "bv_n400", Scale: 16, Request: service.Request{Shots: 1, Chips: 2}}, "explicit mapping"},
	{"shots", service.Submission{Bench: "dvqe"}, "shots 0 < 1"},
	{"qasm-and-bench", service.Submission{QASM: "qreg q[1];", Bench: "dvqe", Request: service.Request{Shots: 1}}, "not both"},
}

// TestSubmitRemoteValidatesClientSide pins the -serve client contract:
// every option is validated locally, before anything is POSTed. The base
// URL below points at a port nothing listens on, so a request that reaches
// the network fails with a connection error — seeing the validator's
// message instead proves the check fired first.
func TestSubmitRemoteValidatesClientSide(t *testing.T) {
	const dead = "http://127.0.0.1:1" // nothing listens here
	for _, tc := range invalidSubmissions {
		_, err := submitRemote(dead, tc.sub)
		if err == nil {
			t.Fatalf("%s: invalid option accepted", tc.name)
		}
		if strings.Contains(err.Error(), "connection refused") {
			t.Fatalf("%s: option reached the network instead of failing locally: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestLocalRejectsWhatRemoteRejects runs the same table through the
// in-process path: one Resolve, so the same inputs fail with the same
// message whether or not a daemon is involved.
func TestLocalRejectsWhatRemoteRejects(t *testing.T) {
	for _, tc := range invalidSubmissions {
		_, _, local := runLocal(tc.sub, 1)
		_, remote := submitRemote("http://127.0.0.1:1", tc.sub)
		if local == nil || remote == nil || local.Error() != remote.Error() {
			t.Errorf("%s: local %v, remote %v: want the same rejection", tc.name, local, remote)
		}
	}
}

// TestSubmitRemoteValidFlagsReachNetwork is the inverse: with every flag
// valid, submitRemote proceeds to the POST and fails only on the dead
// connection — no validator rejects a legitimate multi-chip submission.
func TestSubmitRemoteValidFlagsReachNetwork(t *testing.T) {
	_, err := submitRemote("http://127.0.0.1:1", service.Submission{
		Bench: "dvqe", Scale: 2,
		Request: service.Request{
			Shots: 4, Seed: 7, Topo: "torus", LinkBW: 4,
			Placement: "interaction", Chips: 2,
		},
	})
	if err == nil {
		t.Fatal("dead server accepted a submission")
	}
	if !strings.Contains(err.Error(), "connection refused") && !strings.Contains(err.Error(), "connect") {
		t.Fatalf("expected a connection error, got: %v", err)
	}
}

// TestFlagSetPinned: routing the option flags through
// service.Request.RegisterFlags must not move dhisq-sim's command line —
// these are the names and defaults of the flags before it did, less
// -router-ports, which left with router port sharing, and -schedule and
// -epr-latency, which left the wire with their job options.
func TestFlagSetPinned(t *testing.T) {
	want := map[string]string{
		"qasm": "", "bench": "", "scale": "1", "seed": "1", "shots": "1", "workers": "0",
		"topo": "mesh", "link-bw": "0", "placement": "", "chips": "0",
		"bind": "", "serve": "", "list": "false",
	}
	fs := flag.NewFlagSet("dhisq-sim", flag.ContinueOnError)
	new(options).register(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag set moved:\n got %v\nwant %v", got, want)
	}
}

// daemonStandIn speaks dhisq-serve's two job endpoints over a real service
// as the daemon's handler does: Admit the body, Enqueue the admission, and
// answer a refusal with a 400 carrying {"error": ...}; long-poll and encode
// the JobStatus. (The daemon's own handler lives in another package main;
// what this test needs from it is exactly the shared admission, which is
// all this is.)
func daemonStandIn(t *testing.T) *httptest.Server {
	svc := service.New(service.Config{Workers: 1, ShotWorkers: 2})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		adm, err := svc.Admit(body)
		var id string
		if err == nil {
			id, err = svc.Enqueue(adm)
		}
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, _ := svc.Wait(r.PathValue("id"))
		json.NewEncoder(w).Encode(st)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts
}

// TestLocalMatchesServe is the sequential-equals-distributed obligation for
// the CLI: one Submission, run in-process and through a daemon, gives the
// same histogram, makespan, mesh and mapping. A body the daemon's admission
// refuses comes back as its 400, decoder prefix and all.
func TestLocalMatchesServe(t *testing.T) {
	ts := daemonStandIn(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"bench":"dvqe","shots":2,"schedule":"padded"}`))
	if err != nil {
		t.Fatal(err)
	}
	refusal, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `bad JSON: json: unknown field \"schedule\"`; resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(refusal), want) {
		t.Fatalf("retired field: status %d, answer %s; want 400 containing %s", resp.StatusCode, refusal, want)
	}
	subs := map[string]service.Submission{
		"ghz": {QASM: "qreg q[4]; creg c[4]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3]; measure q[0] -> c[0]; measure q[1] -> c[1]; measure q[2] -> c[2]; measure q[3] -> c[3];",
			Request: service.Request{Shots: 50, Seed: 11}},
		"bv_n400/16": {Bench: "bv_n400", Scale: 16, Request: service.Request{Shots: 20, Seed: 3}},
		"dvqe": {Bench: "dvqe", Request: service.Request{
			Shots: 12, Seed: 5, Chips: 2, Placement: "interaction", Topo: "torus", LinkBW: 4,
		}},
		// Seeded feed-forward with contention off: the daemon's shots past
		// each replica's first come off the outcome map, the local run's
		// are every one simulated.
		"qft_n30": {Bench: "qft_n30", Request: service.Request{Shots: 8, Seed: 9}},
	}
	for name, sub := range subs {
		spec, set, err := runLocal(sub, 3)
		if err != nil {
			t.Fatalf("%s: local: %v", name, err)
		}
		job, err := submitRemote(ts.URL, sub)
		if err != nil {
			t.Fatalf("%s: serve: %v", name, err)
		}
		if !reflect.DeepEqual(set.Histogram(), job.Histogram) {
			t.Errorf("%s: histogram local %v, serve %v", name, set.Histogram(), job.Histogram)
		}
		if local := int64(set.Shots[0].Result.Makespan); local != job.Makespan {
			t.Errorf("%s: makespan local %d, serve %d", name, local, job.Makespan)
		}
		if spec.MeshW != job.MeshW || spec.MeshH != job.MeshH {
			t.Errorf("%s: mesh local %dx%d, serve %dx%d", name, spec.MeshW, spec.MeshH, job.MeshW, job.MeshH)
		}
		// The local run's mapping is its compiled artifact's: a cache hit
		// on the artifact the run just compiled.
		m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, spec.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := machine.Compile(spec.Circuit, spec.Mapping, m.Cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cp.Mapping, job.Mapping) {
			t.Errorf("%s: mapping local %v, serve %v", name, cp.Mapping, job.Mapping)
		}
	}
}

// TestPrintRunFailsOnEveryInvariant: an overlap or an order inversion on
// any shot fails the run, as a timing violation or a misalignment does.
func TestPrintRunFailsOnEveryInvariant(t *testing.T) {
	spec, set, err := runLocal(service.Submission{
		QASM:    "qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];",
		Request: service.Request{Shots: 2},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !printRun(spec, set, time.Second) {
		t.Fatal("a clean run failed")
	}
	for name, breakIt := range map[string]func(*machine.Result){
		"overlap":   func(r *machine.Result) { r.Overlaps = 1 },
		"inversion": func(r *machine.Result) { r.Inversions = 1 },
	} {
		clean := set.Shots[1].Result
		breakIt(&set.Shots[1].Result)
		if printRun(spec, set, time.Second) {
			t.Errorf("%s on shot 1: printRun passed the run", name)
		}
		set.Shots[1].Result = clean
	}
}
