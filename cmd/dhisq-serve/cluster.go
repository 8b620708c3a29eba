package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"dhisq/internal/service"
)

// cluster is one shard's view of a consistent-hash dhisq-serve cluster:
// the ring every member builds identically from the -cluster list, this
// process's own base URL, and the client that forwards submissions hashing
// to another shard. nil means single-node (no routing at all).
type cluster struct {
	ring   *service.Ring
	self   string
	client *http.Client

	// owners remembers which shard a proxied submission landed on, keyed
	// by the job ID the owner returned. Job IDs are per-shard counters, so
	// a follow-up GET for a proxied job cannot be re-derived from the ID —
	// it must be looked up here and proxied to the recorded owner.
	// Bounded FIFO: ownerOrder evicts the oldest entry past maxOwners.
	mu         sync.Mutex
	owners     map[string]string
	ownerOrder []string
}

// maxOwners bounds the proxied-job owner table; beyond it the oldest
// mapping is forgotten (its follow-ups then 404 on the entry shard, same
// as any retired job).
const maxOwners = 16384

// recordOwner remembers that job id lives on the given shard.
func (c *cluster) recordOwner(id, owner string) {
	if id == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.owners == nil {
		c.owners = make(map[string]string)
	}
	if _, dup := c.owners[id]; !dup {
		c.ownerOrder = append(c.ownerOrder, id)
		for len(c.ownerOrder) > maxOwners {
			delete(c.owners, c.ownerOrder[0])
			c.ownerOrder = c.ownerOrder[1:]
		}
	}
	c.owners[id] = owner
}

// jobOwner reports the shard a proxied job id was recorded on ("" = not a
// job this shard proxied; serve it locally or 404).
func (c *cluster) jobOwner(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.owners[id]
}

// newCluster parses the -cluster/-self flags. An empty list means
// single-node mode (nil cluster, no error). Members are base URLs; a bare
// host:port gets an http:// scheme, and trailing slashes are dropped so
// each member has exactly one canonical name — the ring hashes names, so
// two spellings of one shard would split its keyspace.
func newCluster(list, self string) (*cluster, error) {
	if list == "" {
		if self != "" {
			return nil, fmt.Errorf("-self given without -cluster")
		}
		return nil, nil
	}
	var members []string
	for _, m := range strings.Split(list, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		n, err := canonicalURL(m)
		if err != nil {
			return nil, fmt.Errorf("-cluster member %q: %w", m, err)
		}
		members = append(members, n)
	}
	ring, err := service.NewRing(members)
	if err != nil {
		return nil, err
	}
	if self == "" {
		return nil, fmt.Errorf("-cluster requires -self (this shard's own entry in the list)")
	}
	selfN, err := canonicalURL(self)
	if err != nil {
		return nil, fmt.Errorf("-self %q: %w", self, err)
	}
	if !slices.Contains(members, selfN) {
		return nil, fmt.Errorf("-self %s is not in -cluster %v", selfN, members)
	}
	return &cluster{
		ring: ring, self: selfN,
		client: &http.Client{Timeout: 5 * time.Minute},
	}, nil
}

// jobIDPrefix is the job-ID prefix of this shard's service ("" on a
// single node): eight hex digits of a hash of its own URL. A forwarded
// job keeps the ID its owner gave it, and the owner table routes follow-ups
// by that ID, so no two shards may hand out the same one.
func (c *cluster) jobIDPrefix() string {
	if c == nil {
		return ""
	}
	sum := sha256.Sum256([]byte(c.self))
	return hex.EncodeToString(sum[:4]) + "-"
}

// canonicalURL normalizes one shard spelling to scheme://host[:port].
func canonicalURL(s string) (string, error) {
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", err
	}
	if u.Host == "" {
		return "", fmt.Errorf("no host in %q", s)
	}
	return u.Scheme + "://" + u.Host, nil
}

// forward relays a misrouted submission to its owning shard: the shard
// re-posts the body and relays the owner's response, so clients never see
// the topology. X-Dhisq-Shard names the owner.
func (c *cluster) forward(w http.ResponseWriter, owner string, body []byte) {
	w.Header().Set("X-Dhisq-Shard", owner)
	resp, err := c.client.Post(owner+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		badGateway(w, owner, err)
		return
	}
	defer resp.Body.Close()
	// The body must be buffered anyway to learn the owner's job ID, so the
	// follow-up table can route this job's polls and streams back there.
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		badGateway(w, owner, fmt.Errorf("read response: %w", err))
		return
	}
	if resp.StatusCode == http.StatusAccepted {
		var accepted struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(respBody, &accepted) == nil {
			c.recordOwner(accepted.ID, owner)
		}
	}
	// Relay the owner's headers wholesale (replace, not append, so our own
	// pre-set X-Dhisq-Shard doesn't duplicate): the owner's Content-Type
	// and any operational headers must survive the proxy hop.
	for k, vv := range resp.Header {
		w.Header()[k] = append([]string(nil), vv...)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

// badGateway answers 502 for a hop to owner that failed with err.
func badGateway(w http.ResponseWriter, owner string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadGateway)
	fmt.Fprintf(w, `{"error":%q}`, fmt.Sprintf("proxy to %s: %v", owner, err))
}

// proxyRead relays a job follow-up (poll, long-poll, or NDJSON stream) to
// the shard that owns the job, flushing after every chunk so streamed
// lines reach the client as the owner emits them, not when the response
// ends.
func (c *cluster) proxyRead(w http.ResponseWriter, r *http.Request, owner string) {
	target := owner + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		badGateway(w, owner, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		badGateway(w, owner, err)
		return
	}
	defer resp.Body.Close()
	for k, vv := range resp.Header {
		w.Header()[k] = append([]string(nil), vv...)
	}
	w.Header().Set("X-Dhisq-Shard", owner)
	w.WriteHeader(resp.StatusCode)
	dst := io.Writer(w)
	if fl, ok := w.(http.Flusher); ok {
		dst = flushWriter{w: w, fl: fl}
	}
	io.Copy(dst, resp.Body)
}

// flushWriter flushes after every Write, preserving the per-line latency
// of a proxied NDJSON stream.
type flushWriter struct {
	w  io.Writer
	fl http.Flusher
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.fl.Flush()
	return n, err
}
