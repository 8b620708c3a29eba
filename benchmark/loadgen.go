package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one job as its client saw it.
type sample struct {
	index      int           // position in the workload's job stream
	due        time.Time     // when the latency clock started
	done       time.Time     // final result bytes decoded
	late       time.Duration // open loop: how long after due the generator released it
	submitRTT  time.Duration // POST /v1/jobs round trip
	waitRTT    time.Duration // long-poll or stream, request to last byte
	firstPoint time.Duration // due → first result line read
	// progress is when each unit of the job's result arrived: every point
	// line of a stream, or the one line of a long-poll. Throughput is
	// counted in these, so a 32-point sweep advances it 32 times.
	progress  []time.Time
	reqBytes  int
	respBytes int
	res       jobResult
	cacheHit  bool
	batched   bool
	err       error // transport error, refusal, or state: failed
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// landed is when the job's last result line arrived: the clock the rounds
// are cut by, which runs a decode ahead of done. A job that failed before
// any line has only done.
func (s *sample) landed() time.Time {
	if n := len(s.progress); n > 0 {
		return s.progress[n-1]
	}
	return s.done
}

// client drives jobs over one connection.
type client struct {
	http *http.Client
	base string
	rec  *recorder // nil unless this is the window of a traced run
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do submits one job and reads its result. due starts the latency clock:
// now for a closed loop, the scheduled arrival for an open loop.
func (c *client) do(index int, j *job, stream bool, due time.Time) (s sample) {
	s = sample{index: index, due: due, reqBytes: len(j.body)}
	root := c.rec.begin("http.job", noSpan, index)
	defer func() {
		s.done = time.Now()
		c.rec.end(root)
	}()

	if c.rec != nil {
		// The untraced pass sends pre-encoded bodies; the ledger still wants
		// to know what encoding one costs a client.
		sp := c.rec.begin("http.encode", root, index)
		json.Marshal(j.req)
		c.rec.end(sp)
	}

	sp := c.rec.begin("http.post", root, index)
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		s.err = err
		return s
	}
	ack, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.submitRTT = time.Since(t0)
	c.rec.end(sp)
	s.respBytes += len(ack)
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusAccepted {
		s.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(ack))
		return s
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ack, &accepted); err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}

	url := c.base + "/v1/jobs/" + accepted.ID + "?wait=1"
	name := "http.wait"
	if stream {
		url = c.base + "/v1/jobs/" + accepted.ID + "/stream"
		name = "http.stream"
	}
	sp = c.rec.begin(name, root, index)
	t0 = time.Now()
	resp, err = c.http.Get(url)
	if err != nil {
		s.err = err
		return s
	}
	// Both endpoints answer in lines: a long-poll is one line, a stream is
	// one line per point and a last one for the job.
	var lines [][]byte
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			if len(lines) == 0 {
				s.firstPoint = now.Sub(due)
			}
			if !stream || bytes.HasPrefix(line, []byte(`{"point":`)) {
				s.progress = append(s.progress, now)
			}
			s.respBytes += len(line)
			lines = append(lines, line)
		}
		if err != nil {
			if err != io.EOF {
				s.err = err
			}
			break
		}
	}
	resp.Body.Close()
	s.waitRTT = time.Since(t0)
	c.rec.end(sp)
	if s.err != nil {
		return s
	}
	if resp.StatusCode != http.StatusOK || len(lines) == 0 {
		s.err = fmt.Errorf("result: %s with %d lines", resp.Status, len(lines))
		return s
	}

	sp = c.rec.begin("http.decode", root, index)
	defer c.rec.end(sp)
	var final jobResponse
	if stream {
		var points []pointResult
		for _, line := range lines {
			var sl streamLine
			if err := json.Unmarshal(line, &sl); err != nil {
				s.err = fmt.Errorf("stream line: %w", err)
				return s
			}
			if sl.Point != nil {
				points = append(points, *sl.Point)
			}
			if sl.Job != nil {
				final = *sl.Job
			}
		}
		// What was streamed is what the user got: it replaces the summary's
		// copy and is compared like any other result.
		sort.Slice(points, func(a, b int) bool { return points[a].Index < points[b].Index })
		final.Points = points
	} else if err := json.Unmarshal(lines[0], &final); err != nil {
		s.err = fmt.Errorf("result: %w", err)
		return s
	}
	if final.State != "done" {
		s.err = fmt.Errorf("job %s: state %q: %s", final.ID, final.State, final.Error)
		return s
	}
	s.res, s.cacheHit = final.jobResult, final.CacheHit
	return s
}

// arrivals draws the open loop's schedule: offsets from the window start
// at rate per second. Each 100 ms stratum holds exactly its share of
// arrivals at uniformly random instants, so clumps and gaps inside a
// stratum are those of a Poisson process while the count over any round is
// the same for every seed; a plain Poisson count over a 3 s round would
// alone move jobs_per_s by 6%.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	const stratum = 100 * time.Millisecond
	per := int(rate * stratum.Seconds())
	var out []time.Duration
	for lo := time.Duration(0); lo+stratum <= window; lo += stratum {
		at := make([]time.Duration, per)
		for i := range at {
			at[i] = lo + time.Duration(rng.Int63n(int64(stratum)))
		}
		sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
		out = append(out, at...)
	}
	return out
}

// runLoad drives the workload's stream from job index first for window and
// returns every sample, in completion order. Jobs in flight when the window
// closes are waited for and kept.
func runLoad(w *workload, clients []*client, first int, window time.Duration, seed int64) []sample {
	var mu sync.Mutex
	var samples []sample
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	start := time.Now()
	if w.rate == 0 {
		var next atomic.Int64
		next.Store(int64(first))
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < window {
					i := int(next.Add(1) - 1)
					record(c.do(i, w.jobAt(i), w.stream, time.Now()))
				}
			}()
		}
		wg.Wait()
		return samples
	}

	type arrival struct {
		index int
		due   time.Time
		late  time.Duration
	}
	schedule := arrivals(rand.New(rand.NewSource(seed)), w.rate, window)
	// Sized to the whole schedule: the generator must never wait for a
	// client, or it would stop being an open loop.
	queue := make(chan arrival, len(schedule))
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				s := c.do(a.index, w.jobAt(a.index), w.stream, a.due)
				s.late = a.late
				record(s)
			}
		}()
	}
	// The generator owns a thread and wakes early to spin up to each due
	// time: on two busy cores a sleeping thread is otherwise scheduled up to
	// 2 ms late, and a late generator is no open loop. Where the benchmark
	// may (it runs as root on the reference box) the thread also takes the
	// highest priority, so that it is the one to run when it wakes: p95
	// lateness falls from about 1 ms to under 0.1 ms. Without the right it
	// only spins, and loadgen.late_p95_ms shows what that left.
	const spin = 1500 * time.Microsecond
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), -20) == nil {
		defer syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), 0)
	}
	for k, off := range schedule {
		due := start.Add(off)
		time.Sleep(time.Until(due) - spin)
		for time.Now().Before(due) {
		}
		queue <- arrival{index: first + k, due: due, late: time.Since(due)}
	}
	close(queue)
	wg.Wait()
	return samples
}
