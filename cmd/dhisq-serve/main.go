// Command dhisq-serve is the long-lived batch-execution daemon: it keeps
// one job service (internal/service) and the shared compiled-artifact
// cache (internal/artifact) warm across requests, so repeat submissions
// of the same circuit skip compilation and machine construction entirely
// and go straight to reset-and-run shots.
//
// JSON endpoints:
//
//	POST /v1/jobs        submit {"qasm": "..."} or {"bench": "name", "scale": N}
//	                     plus "shots" (required) and optional "seed", "mapping",
//	                     "topo" (mesh|torus|tree), "link_bw" (cycles/message,
//	                     0 = infinite), "router_ports", "placement"
//	                     (identity|rowmajor|interaction), "schedule"
//	                     (fixed|padded), "collective" (collective schedule
//	                     name, DESIGN.md §12), "chips" (split the data
//	                     qubits across N chips; crossing gates teleport via
//	                     EPR pairs, DESIGN.md §13) with "epr_latency"
//	                     (cycles per pair generation); parameterized
//	                     circuits (QASM angles written as identifiers, e.g.
//	                     "rz(theta0) q[0];") take "params" {"theta0": 0.5} or
//	                     "sweep" [{"theta0": 0.1}, ...] — a sweep compiles the
//	                     skeleton once and patches angles per point
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
// jobs route by their bind-invariant structural key, so each circuit
// family is owned by one shard whose cache, replica pool, and store stay
// hot on it. A submission landing on a non-owner answers 307 (Location =
// the owner's /v1/jobs, X-Dhisq-Shard = the owner's base URL) — or, with
// -proxy, forwards server-side. Job IDs are per-shard: poll the shard
// named by the submit response's "shard" field. In -proxy mode the entry
// shard also remembers which shard each proxied submission landed on and
// proxies follow-up polls and streams there, so a dumb client can talk to
// one shard for the job's whole lifetime.
//
// Submit a GHZ circuit and read its histogram:
//
//	dhisq-serve -addr :8080 &
//	dhisq-sim -serve http://localhost:8080 -qasm ghz.qasm -shots 200
//
// Usage:
//
//	dhisq-serve [-addr :8080] [-workers N] [-queue N] [-shot-workers W]
//	            [-seed S] [-cache N] [-placement P] [-schedule S]
//	            [-replace-stall N] [-store DIR] [-store-max-bytes N]
//	            [-cluster url1,url2,... -self url [-proxy]]
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
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/service"
	"dhisq/internal/sim"
	"dhisq/internal/store"
	"dhisq/internal/workloads"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS/2)")
	queue := flag.Int("queue", 64, "bounded job-queue depth")
	shotWorkers := flag.Int("shot-workers", 1, "machine replicas per job's shot fan-out")
	seed := flag.Int64("seed", 1, "service base seed for jobs without one")
	cacheCap := flag.Int("cache", artifact.DefaultCapacity, "artifact cache capacity (entries)")
	placePolicy := flag.String("placement", "", "default placement policy for jobs that don't name one: identity, rowmajor, interaction, or congestion")
	schedPolicy := flag.String("schedule", "", "default scheduling policy for jobs that don't name one: fixed or padded")
	replaceStall := flag.Uint64("replace-stall", 0, "aggregate fabric-stall cycles per artifact beyond which the service re-places it with congestion feedback (0 = off)")
	storeDir := flag.String("store", "", "directory for the persistent artifact store (restores compiles across restarts)")
	storeMax := flag.Int64("store-max-bytes", 0, "artifact store byte budget, oldest spills evicted beyond it (0 = 512 MiB)")
	clusterList := flag.String("cluster", "", "comma-separated base URLs of every shard, this one included (enables consistent-hash routing)")
	selfURL := flag.String("self", "", "this shard's own entry in -cluster (required with -cluster)")
	proxyMode := flag.Bool("proxy", false, "forward misrouted submissions to their owner server-side instead of 307-redirecting")
	flag.Parse()

	if err := placement.Valid(*placePolicy); err != nil {
		fmt.Fprintln(os.Stderr, "dhisq-serve:", err)
		os.Exit(2)
	}
	if err := compiler.ValidSchedule(*schedPolicy); err != nil {
		fmt.Fprintln(os.Stderr, "dhisq-serve:", err)
		os.Exit(2)
	}
	artifact.Shared.Resize(*cacheCap)
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *storeMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dhisq-serve:", err)
			os.Exit(2)
		}
		artifact.Shared.SetStore(st)
		fmt.Printf("dhisq-serve: artifact store %s (%d artifacts on disk)\n", st.Dir(), st.Len())
	}
	cl, err := newCluster(*clusterList, *selfURL, *proxyMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhisq-serve:", err)
		os.Exit(2)
	}
	svc := service.New(service.Config{
		Workers: *workers, QueueDepth: *queue,
		ShotWorkers: *shotWorkers, Seed: *seed,
		ReplaceStallThreshold: *replaceStall,
	})
	srv := &http.Server{Addr: *addr, Handler: newClusterHandler(svc, *placePolicy, *schedPolicy, cl)}

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
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dhisq-serve:", err)
		os.Exit(1)
	}
	<-drained
	svc.Close()
}

// submitRequest is the POST /v1/jobs body. Exactly one of QASM or Bench
// names the circuit. The optional fabric fields select the intra-layer
// topology and the contention model (DESIGN.md §6) for this job; left
// zero, the job runs on the default mesh with infinite link bandwidth.
type submitRequest struct {
	QASM    string `json:"qasm,omitempty"`
	Bench   string `json:"bench,omitempty"`
	Scale   int    `json:"scale,omitempty"` // benchmark size divisor
	Shots   int    `json:"shots"`
	Seed    int64  `json:"seed,omitempty"`
	Mapping []int  `json:"mapping,omitempty"`
	// Topo is "mesh", "torus", or "tree" ("" = mesh).
	Topo string `json:"topo,omitempty"`
	// LinkBW is the link bandwidth as cycles per message (0 = infinite,
	// contention off); RouterPorts caps physical ports per router.
	LinkBW      int64 `json:"link_bw,omitempty"`
	RouterPorts int   `json:"router_ports,omitempty"`
	// Placement names the placement policy for unmapped circuits
	// ("identity", "rowmajor", "interaction", "congestion"; "" = the
	// daemon's -placement default, itself defaulting to identity).
	Placement string `json:"placement,omitempty"`
	// Schedule names the compiler's scheduling policy ("fixed", "padded";
	// "" = the daemon's -schedule default, itself defaulting to fixed).
	Schedule string `json:"schedule,omitempty"`
	// Collective names a fabric collective schedule ("naive", "ring",
	// "halving", "tree", "auto") and switches the job onto the
	// collective-aware lowering plus the post-run digest reduce
	// (DESIGN.md §12). "" leaves the collective machinery off.
	Collective string `json:"collective,omitempty"`
	// Chips splits the device into a multi-chip partition; cross-chip
	// two-qubit gates run as EPR-mediated teleported gates (DESIGN.md
	// §13). 0/1 = single chip. EPRLatency overrides the EPR
	// pair-generation latency in cycles (0 = machine default). Both are
	// validated at service admission.
	Chips      int   `json:"chips,omitempty"`
	EPRLatency int64 `json:"epr_latency,omitempty"`
	// Params binds the circuit's symbolic parameters (QASM angles written
	// as identifiers, e.g. "rz(theta0) q[0];"); Sweep runs the circuit at
	// every listed binding inside one job — the skeleton compiles once
	// and each point is a cheap table patch (DESIGN.md §8). Mutually
	// exclusive with each other.
	Params map[string]float64   `json:"params,omitempty"`
	Sweep  []map[string]float64 `json:"sweep,omitempty"`
}

// jobResponse is the wire form of a job snapshot.
type jobResponse struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Shots       int    `json:"shots"`
	Seed        int64  `json:"seed"`
	Fingerprint string `json:"fingerprint,omitempty"`
	CacheHit    bool   `json:"cache_hit"`
	Batched     bool   `json:"batched"`
	// MeshW/MeshH, Placement and Mapping echo the resolved placement so a
	// remote user can see why two submissions hit different replica pools
	// (mapping is omitted for identity placement).
	MeshW     int    `json:"mesh_w,omitempty"`
	MeshH     int    `json:"mesh_h,omitempty"`
	Placement string `json:"placement,omitempty"`
	Schedule  string `json:"schedule,omitempty"`
	Mapping   []int  `json:"mapping,omitempty"`
	// Chips echoes the resolved chip count (omitted for single-chip
	// jobs); EPRPairs totals the EPR pairs generated across the job's
	// shots.
	Chips     int            `json:"chips,omitempty"`
	EPRPairs  uint64         `json:"epr_pairs,omitempty"`
	Makespan  int64          `json:"makespan_cycles,omitempty"`
	Histogram map[string]int `json:"histogram,omitempty"`
	// Points carries a sweep job's per-point results (params, histogram,
	// makespan) in point order; Histogram stays empty for sweep jobs.
	Points []service.PointStatus `json:"points,omitempty"`
	// Shard is the base URL of the cluster shard that owns and ran this
	// job (empty on a single-node daemon). Job IDs are per-shard, so
	// clients poll the shard a submission reports, not the shard they
	// happened to submit through.
	Shard string `json:"shard,omitempty"`
	Error string `json:"error,omitempty"`
}

func toResponse(st service.JobStatus) jobResponse {
	return jobResponse{
		ID: st.ID, State: string(st.State), Shots: st.Shots, Seed: st.Seed,
		Fingerprint: st.Fingerprint, CacheHit: st.CacheHit, Batched: st.Batched,
		MeshW: st.MeshW, MeshH: st.MeshH, Placement: st.Placement,
		Schedule: st.Schedule, Mapping: st.Mapping,
		Chips: st.Chips, EPRPairs: st.EPRPairs,
		Makespan: st.Makespan, Histogram: st.Histogram, Points: st.Points, Error: st.Err,
	}
}

// newHandler builds the single-node JSON API over a running service
// (separate from main so tests drive it through httptest).
// defaultPlacement/defaultSchedule are applied to submissions that don't
// name a policy (the -placement and -schedule flags).
func newHandler(svc *service.Service, defaultPlacement, defaultSchedule string) http.Handler {
	return newClusterHandler(svc, defaultPlacement, defaultSchedule, nil)
}

// newClusterHandler is newHandler plus consistent-hash routing: with a
// non-nil cluster, submissions that hash to another shard are redirected
// (or proxied) there, and every job response names its owning shard.
func newClusterHandler(svc *service.Service, defaultPlacement, defaultSchedule string, cl *cluster) http.Handler {
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
		// The body is buffered (rather than stream-decoded) because proxy
		// mode re-sends it verbatim to the owning shard.
		body, err := readBody(w, r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
			return
		}
		var req submitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
			return
		}
		if req.Placement == "" {
			req.Placement = defaultPlacement
		}
		if req.Schedule == "" {
			req.Schedule = defaultSchedule
		}
		sreq, err := buildRequest(req)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		shard := ""
		if cl != nil {
			owner, local, routeErr := cl.owner(sreq)
			if routeErr != nil {
				writeErr(w, http.StatusBadRequest, routeErr)
				return
			}
			if !local {
				cl.forward(w, r, owner, body)
				return
			}
			shard = owner
			w.Header().Set("X-Dhisq-Shard", owner)
		}
		id, err := svc.Submit(sreq)
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
	withShard := func(st service.JobStatus) jobResponse {
		resp := toResponse(st)
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
		if cl != nil {
			lookup := id
			if isStream {
				lookup = sid
			}
			// A job this shard proxied at submit time lives on another
			// shard under an ID that means nothing locally: route the
			// follow-up (poll, long-poll, or stream) to the recorded owner.
			if owner := cl.jobOwner(lookup); owner != "" && owner != cl.self {
				cl.proxyRead(w, r, owner)
				return
			}
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
	Job   *jobResponse         `json:"job,omitempty"`
}

// streamJob serves one streaming watch: headers first (the job's
// existence is checked before the 200 commits), then a flush per line so
// points reach the client as they finish, not when the job does.
func streamJob(w http.ResponseWriter, r *http.Request, svc *service.Service,
	id string, withShard func(service.JobStatus) jobResponse,
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

// buildRequest turns a wire submission into a service request, building
// the circuit from QASM text or a named Fig. 15 benchmark and applying
// any fabric overrides.
func buildRequest(req submitRequest) (service.Request, error) {
	var sreq service.Request
	var defaultParams map[string]float64
	switch {
	case req.QASM != "" && req.Bench != "":
		return service.Request{}, fmt.Errorf("give qasm or bench, not both")
	case req.QASM != "":
		c, err := circuit.ParseQASM(req.QASM)
		if err != nil {
			return service.Request{}, fmt.Errorf("qasm: %w", err)
		}
		sreq = service.Request{
			Circuit: c, Mapping: req.Mapping, Shots: req.Shots, Seed: req.Seed,
		}
	case req.Bench != "":
		scale := req.Scale
		if scale < 1 {
			scale = 1
		}
		b, err := workloads.BuildScaled(req.Bench, scale)
		if err != nil {
			return service.Request{}, err
		}
		sreq = service.Request{
			Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH,
			Mapping: b.Mapping, Shots: req.Shots, Seed: req.Seed,
		}
		defaultParams = b.DefaultParams
	default:
		return service.Request{}, fmt.Errorf("submission needs qasm or bench")
	}
	if err := placement.Valid(req.Placement); err != nil {
		return service.Request{}, err
	}
	if err := compiler.ValidSchedule(req.Schedule); err != nil {
		return service.Request{}, err
	}
	sreq.Placement = req.Placement
	sreq.Schedule = req.Schedule
	// Collective names are validated at service admission (the resolved
	// name must parse as a network.CollSchedule), same as an invalid Topo.
	sreq.Collective = req.Collective
	// Chip count and EPR latency are validated at service admission
	// (bounds, mapping conflicts) like the collective name.
	sreq.Chips = req.Chips
	sreq.EPRLatency = sim.Time(req.EPRLatency)
	if req.Params == nil && len(req.Sweep) == 0 {
		// Parameterized benchmarks (dvqe) carry a point-0 default binding
		// so a bare {"bench": ...} submission runs; explicit params or a
		// sweep always win (and QASM submissions never have a default).
		req.Params = defaultParams
	}
	sreq.Params = req.Params
	sreq.Sweep = req.Sweep
	if err := applyFabric(req, &sreq); err != nil {
		return service.Request{}, err
	}
	return sreq, nil
}

// applyFabric installs the submission's topology/contention overrides as
// an explicit machine config (the service fills in mesh shape and seed).
func applyFabric(req submitRequest, sreq *service.Request) error {
	if req.Topo == "" && req.LinkBW == 0 && req.RouterPorts == 0 {
		return nil
	}
	if req.LinkBW < 0 || req.RouterPorts < 0 {
		return fmt.Errorf("link_bw and router_ports must be >= 0")
	}
	cfg := machine.DefaultConfig(sreq.Circuit.NumQubits)
	if req.Topo != "" {
		kind, err := network.ParseTopology(req.Topo)
		if err != nil {
			return err
		}
		cfg.Net.Topology = kind
	}
	cfg.Net.LinkSerialization = req.LinkBW
	cfg.Net.RouterPorts = req.RouterPorts
	sreq.Cfg = &cfg
	return nil
}
