// Command dhisq-serve is the long-lived batch-execution daemon: it keeps
// one job service (internal/service) and the shared compiled-artifact
// cache (internal/artifact) warm across requests, so repeat submissions
// of the same circuit skip compilation and machine construction entirely
// and go straight to reset-and-run shots.
//
// JSON endpoints:
//
//	POST /v1/jobs        submit {"qasm": "..."} or {"bench": "name", "scale": N}
//	                     plus "shots" (required) and any per-job option. The
//	                     body is a service.Submission: its fields — and
//	                     service.Request's, which it embeds — are the one
//	                     declaration of every name ("seed", "mapping", "topo",
//	                     "link_bw", "placement", "chips", "params",
//	                     "sweep"), and
//	                     service.Resolve is the one reading of them
//	                     (service.Admit memoises it for a body that repeats
//	                     an earlier one but for "seed" and "shots"). A
//	                     field that is not declared there is a 400 naming
//	                     it, not a job run on defaults; a body over 16 MiB
//	                     is a 413
//	                     -> {"id": "job-000042", "state": "queued"}
//	GET  /v1/jobs/{id}   poll a job; ?wait=1/true long-polls until it
//	                     finishes, ?wait=0/false (or no wait) polls once;
//	                     echoes the resolved mesh dimensions, placement
//	                     policy and final qubit→controller mapping (plus
//	                     "chips" and "epr_pairs" for multi-chip jobs), and
//	                     for sweep jobs the per-point results as "points"
//	GET  /v1/jobs/{id}/stream
//	                     chunked NDJSON: one {"point": ...} line per sweep
//	                     point as it finishes (completion order — "index"
//	                     gives the submission position), then exactly one
//	                     terminal {"job": ...} summary line
//	GET  /v1/stats       queue depth, job counters, artifact-cache hit/miss
//	                     (including store_hits/spills of the persistent
//	                     store), binds/bind_hits of the binding layer
//	GET  /healthz        liveness
//
// -store DIR attaches a persistent on-disk artifact store under the
// compile cache: every compiled artifact spills to DIR, and a restarted
// daemon restores from it instead of recompiling — repeat jobs after a
// restart report cache_hit with zero fresh compiles.
//
// -cluster turns the daemon into one shard of a consistent-hash cluster:
// jobs route by their fingerprint — the bind-invariant structural key for
// parameterized jobs — so each circuit family is owned by one shard whose
// cache, replica pool, and store stay hot on it. A submission landing on a
// non-owner is forwarded to the owner server-side, and the client sees the
// owner's answer. Job IDs are per-shard and start with a hash of their
// owner's URL: the submit response's "shard" field names the owner, which a
// client may poll directly, and any shard relays a follow-up poll or stream
// to the owner its ID names, so a client can talk to one shard for the
// job's whole lifetime.
//
// Every job is guaranteed -shot-workers machine replicas for its shots or
// sweep points; a job that starts while workers idle borrows their shares
// too, decided once at its start, so a lone job fans out over all
// -workers × -shot-workers. Jobs that start beside it still get their
// guaranteed share, so up to (2 × -workers − 1) × -shot-workers replicas
// run at once. The replica count never moves a result.
//
// Submit a GHZ circuit and read its histogram:
//
//	dhisq-serve -addr :8080 &
//	dhisq-sim -serve http://localhost:8080 -qasm ghz.qasm -shots 200
//
// Usage:
//
//	dhisq-serve [-addr :8080] [-workers N] [-queue N] [-shot-workers W]
//	            [-seed S] [-cache N] [-store DIR] [-store-max-bytes N]
//	            [-cluster url1,url2,... -self url]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/service"
	"dhisq/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS/2)")
	queue := flag.Int("queue", 64, "bounded job-queue depth")
	shotWorkers := flag.Int("shot-workers", 1, "machine replicas a job is guaranteed for its shot or sweep-point fan-out (a job starting beside idle workers borrows theirs)")
	seed := flag.Int64("seed", 1, "service base seed for jobs without one")
	cacheCap := flag.Int("cache", artifact.DefaultCapacity, "artifact cache capacity (entries)")
	storeDir := flag.String("store", "", "directory for the persistent artifact store (restores compiles across restarts)")
	storeMax := flag.Int64("store-max-bytes", 0, "artifact store byte budget, oldest spills evicted beyond it (0 = 512 MiB)")
	clusterList := flag.String("cluster", "", "comma-separated base URLs of every shard, this one included (enables consistent-hash routing)")
	selfURL := flag.String("self", "", "this shard's own entry in -cluster (required with -cluster)")
	flag.Parse()

	artifact.Shared.Resize(*cacheCap)
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *storeMax)
		exitOn(2, err)
		artifact.Shared.SetStore(st)
		fmt.Printf("dhisq-serve: artifact store %s (%d artifacts on disk)\n", st.Dir(), st.Len())
	}
	cl, err := newCluster(*clusterList, *selfURL)
	exitOn(2, err)
	svc := service.New(service.Config{
		Workers: *workers, QueueDepth: *queue,
		ShotWorkers: *shotWorkers, Seed: *seed, IDPrefix: cl.jobIDPrefix(),
	})
	srv := newServer(*addr, newHandler(svc, cl))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "dhisq-serve: shutting down")
		// Graceful: stop accepting, but let in-flight requests — long
		// polls included — read their results before the deadline; only
		// then sever whatever is left.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		close(drained)
	}()

	fmt.Printf("dhisq-serve: listening on %s (queue %d, cache %d artifacts)\n",
		*addr, *queue, *cacheCap)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		exitOn(1, err)
	}
	<-drained
	svc.Close()
}

// exitOn reports a fatal start-up error and exits with code; nil is a no-op.
func exitOn(code int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhisq-serve:", err)
		os.Exit(code)
	}
}

// newServer is the daemon's http.Server. A client gets ten seconds to
// finish its request headers, so a connection that opens and goes quiet
// does not hold a goroutine forever; there is deliberately no read or
// write timeout past that — long-polls and /stream live as long as the job.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
}

// jobBody is a job snapshot on the wire: the service's JobStatus, which
// declares every field name, plus the one thing only the daemon knows.
type jobBody struct {
	service.JobStatus
	// Shard is the base URL of the cluster shard that owns and ran this
	// job (empty on a single-node daemon). Any shard relays a follow-up
	// to the owner its ID names; polling the shard named here saves the
	// hop.
	Shard string `json:"shard,omitempty"`
}

// newHandler builds the JSON API over a running service (separate from
// main so tests drive it through httptest). A nil cluster is a single
// node. With a cluster, submissions that route to another shard and
// follow-ups whose ID carries another shard's prefix are relayed there,
// and every job response names its owning shard.
func newHandler(svc *service.Service, cl *cluster) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, err error) {
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})

	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})

	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
			return
		}
		// The body is buffered (rather than stream-decoded) because a
		// cluster shard re-sends it verbatim to the owning shard.
		body, err := readBody(w, r)
		if err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeErr(w, code, fmt.Errorf("read body: %w", err))
			return
		}
		// Admitted once: the admission that is validated here is what the
		// cluster routes on and what the service enqueues.
		adm, err := svc.Admit(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		shard := ""
		if cl != nil {
			// Every member agrees without talking: the owner is a function
			// of the member list and the request's fingerprint.
			if shard = cl.route(adm.Fingerprint); shard != cl.self {
				relay(w, r, shard, body)
				return
			}
			w.Header().Set("X-Dhisq-Shard", shard)
		}
		id, err := svc.Enqueue(adm)
		switch {
		case errors.Is(err, service.ErrQueueFull):
			writeErr(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, service.ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp := map[string]string{"id": id, "state": string(service.StateQueued)}
		if shard != "" {
			resp["shard"] = shard
		}
		writeJSON(w, http.StatusAccepted, resp)
	})

	// withShard stamps the owning shard onto a snapshot's wire form.
	withShard := func(st service.JobStatus) jobBody {
		resp := jobBody{JobStatus: st}
		if cl != nil {
			resp.Shard = cl.self
		}
		return resp
	}

	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		sid, isStream := strings.CutSuffix(id, "/stream")
		// An ID carrying another member's prefix is that member's job:
		// relay the follow-up (poll, long-poll, or stream) there.
		if owner := cl.owner(sid); owner != "" {
			relay(w, r, owner, nil)
			return
		}
		if isStream {
			streamJob(w, r, svc, sid, withShard, writeErr)
			return
		}
		// ?wait is a proper boolean: "1"/"true" long-polls, "0"/"false"
		// (and absence) polls — previously any non-empty value long-polled,
		// so ?wait=0 blocked. Unparseable values are a client error.
		doWait := false
		if v := r.URL.Query().Get("wait"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad wait value %q (want 1/true or 0/false)", v))
				return
			}
			doWait = b
		}
		var st service.JobStatus
		var ok bool
		if doWait {
			// Long-poll bounded by the client connection: a dropped or
			// cancelled request stops waiting instead of leaking a goroutine
			// until the job finishes.
			st, ok = svc.WaitContext(r.Context(), id)
		} else {
			st, ok = svc.Get(id)
		}
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, withShard(st))
	})

	return mux
}

// streamLine is one NDJSON record of GET /v1/jobs/{id}/stream: a finished
// sweep point (in completion order, while the job runs) or the terminal
// job summary. Exactly one summary is emitted, always last — a stream cut
// short by client disconnect simply ends at the last line written.
type streamLine struct {
	Point *service.PointStatus `json:"point,omitempty"`
	Job   *jobBody             `json:"job,omitempty"`
}

// streamJob serves one streaming watch: headers first (the job's
// existence is checked before the 200 commits), then a flush per line so
// points reach the client as they finish, not when the job does.
func streamJob(w http.ResponseWriter, r *http.Request, svc *service.Service,
	id string, withShard func(service.JobStatus) jobBody,
	writeErr func(http.ResponseWriter, int, error)) {
	if _, ok := svc.Get(id); !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	// A failed write means the client is gone: stop emitting (later writes
	// would fail too, and encoding them is wasted work) and cancel the
	// watch so the service-side Stream unblocks instead of riding the job
	// to completion for nobody.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var emitErr error
	emit := func(line streamLine) {
		if emitErr != nil {
			return
		}
		if emitErr = enc.Encode(line); emitErr != nil {
			cancel()
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
	final, ok := svc.Stream(ctx, id, func(p service.PointStatus) {
		emit(streamLine{Point: &p})
	})
	if !ok {
		// Retired between the existence check and the watch: nothing to
		// stream, and the summary below would be empty — end the body.
		return
	}
	resp := withShard(final)
	emit(streamLine{Job: &resp})
}

// maxSubmitBytes caps a submission body.
const maxSubmitBytes = 16 << 20

// readBody buffers a submission. The buffer is sized once from
// Content-Length — io.ReadAll's doubling from 512 bytes copies a 67 KB
// circuit about eight times — but a declared length is only a claim, so no
// more than 1 MiB is reserved on its word; a longer (or chunked, length
// unknown) body grows the buffer as it actually arrives.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		// ReadFrom wants bytes.MinRead spare bytes before its last,
		// empty read, or it grows the buffer to find out it is done.
		buf.Grow(int(min(n, 1<<20)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	return buf.Bytes(), err
}
