package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"dhisq/internal/artifact"
)

// cluster is one shard's view of a dhisq-serve cluster: the -cluster
// member list, this process's own base URL, and each member's job-ID
// prefix. Routing is a function of the request alone — a submission by
// its fingerprint (route), a follow-up by its ID's prefix (owner) — so
// every member agrees without talking and no shard remembers another's
// jobs. nil means single-node (no routing at all).
type cluster struct {
	members  []string // canonical URLs, in -cluster order
	self     string
	byPrefix map[string]string // shardPrefix(member) → member
}

// submitTimeout bounds a forwarded submission's whole exchange. A
// forwarded read has no such bound: it lives as long as its reader.
var submitTimeout = 5 * time.Minute

// newCluster parses the -cluster/-self flags. An empty list means
// single-node mode (nil cluster, no error). Members are base URLs; a bare
// host:port gets an http:// scheme, and trailing slashes are dropped so
// each member has exactly one canonical name — route hashes names, so
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
	// A follow-up is routed by its ID's prefix, so two members with one
	// prefix would hand out one ID and split its follow-ups between them.
	// This also refuses a member listed twice.
	byPrefix := make(map[string]string, len(members))
	for _, m := range members {
		p := shardPrefix(m)
		if other, dup := byPrefix[p]; dup {
			return nil, fmt.Errorf("-cluster members %s and %s share the job-ID prefix %s", other, m, p)
		}
		byPrefix[p] = m
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
	return &cluster{members: members, self: selfN, byPrefix: byPrefix}, nil
}

// route is the member that owns fingerprint fp, by rendezvous hashing:
// each member scores the key as the first 8 bytes of SHA-256(member ‖ fp),
// and the highest score wins, a tie going to the smaller URL. The owner
// depends on the member set, not its order, and removing a member moves
// only the keys it owned, so the other shards' caches, pools and stores
// stay valid.
func (c *cluster) route(fp artifact.Fingerprint) string {
	var best string
	var bestScore uint64
	for _, m := range c.members {
		sum := sha256.Sum256(append([]byte(m), fp[:]...))
		score := binary.BigEndian.Uint64(sum[:8])
		if best == "" || score > bestScore || score == bestScore && m < best {
			best, bestScore = m, score
		}
	}
	return best
}

// shardPrefix is a member's job-ID prefix: eight hex digits of a hash of
// its canonical URL.
func shardPrefix(member string) string {
	sum := sha256.Sum256([]byte(member))
	return hex.EncodeToString(sum[:4])
}

// jobIDPrefix is the job-ID prefix of this shard's service ("" on a
// single node). Every member knows every other's, so an ID names the
// shard that handed it out.
func (c *cluster) jobIDPrefix() string {
	if c == nil {
		return ""
	}
	return shardPrefix(c.self) + "-"
}

// owner is the other member whose prefix job id carries: "" for this
// shard's own IDs, for an ID no member hands out, and on a single node.
func (c *cluster) owner(id string) string {
	if c == nil {
		return ""
	}
	p, _, _ := strings.Cut(id, "-")
	if o := c.byPrefix[p]; o != c.self {
		return o
	}
	return ""
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

// relay is the one cluster hop. It re-sends r to owner — body, the
// buffered copy of a submission, or r's path and query for a read (nil
// body) — and copies the owner's headers, status and body back, flushing
// after every write so long-poll answers and NDJSON lines reach the client
// as the owner emits them. X-Dhisq-Shard names the owner. The hop carries
// r's context, so a client that hangs up cancels it; a submission is also
// bounded by submitTimeout.
func relay(w http.ResponseWriter, r *http.Request, owner string, body []byte) {
	ctx := r.Context()
	if body != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, submitTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, owner+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		badGateway(w, owner, err)
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		badGateway(w, owner, err)
		return
	}
	defer resp.Body.Close()
	for k, vv := range resp.Header {
		w.Header()[k] = vv
	}
	w.Header().Set("X-Dhisq-Shard", owner)
	w.WriteHeader(resp.StatusCode)
	dst := io.Writer(w)
	if fl, ok := w.(http.Flusher); ok {
		dst = flushWriter{w: w, fl: fl}
	}
	io.Copy(dst, resp.Body)
}

// badGateway answers 502 for a hop to owner that failed with err.
func badGateway(w http.ResponseWriter, owner string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadGateway)
	fmt.Fprintf(w, `{"error":%q}`, fmt.Sprintf("proxy to %s: %v", owner, err))
}

// flushWriter flushes after every Write, preserving the per-line latency
// of a relayed NDJSON stream.
type flushWriter struct {
	w  io.Writer
	fl http.Flusher
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.fl.Flush()
	return n, err
}
