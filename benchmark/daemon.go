package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dhisq/internal/service"
)

// daemonFlags are fixed: two commits are compared under the same daemon
// configuration. -store and -addr are appended per boot.
var daemonFlags = []string{"-workers", "2", "-shot-workers", "1", "-queue", "64", "-cache", "128"}

// buildDaemon compiles cmd/dhisq-serve from the module that holds this
// benchmark into dir and returns the binary's path.
func buildDaemon(repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "dhisq-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dhisq-serve")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build dhisq-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running dhisq-serve child.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	store string
	log   bytes.Buffer // the child's stderr, shown only if it misbehaves
}

// bootDaemon starts a fresh daemon with an empty store under dir and
// returns once /healthz answers.
func bootDaemon(bin, dir string) (*daemon, error) {
	// The daemon cannot report a port it picked itself, so pick one here;
	// the listener is closed just before the child binds it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	store, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	args := append(append([]string{}, daemonFlags...), "-store", store, "-addr", addr)
	d := &daemon{cmd: exec.Command(bin, args...), base: "http://" + addr, store: store}
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(store)
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon on %s did not become healthy: %v\n%s", addr, err, d.log.Bytes())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the daemon, waits for it to exit and removes its store.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	os.RemoveAll(d.store)
}

// cpuSeconds is the daemon's user+system CPU time so far, read from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s on Linux).
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", raw)
	}
	const ticksPerSecond = 100
	return (utime + stime) / ticksPerSecond, nil
}

// peakRSSMB is the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// stats reads /v1/stats.
func (d *daemon) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := http.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cpuLog is the daemon's CPU time sampled through a window.
type cpuLog struct {
	times []time.Time
	cpu   []float64
}

// at interpolates the daemon's CPU seconds at t.
func (l *cpuLog) at(t time.Time) float64 {
	i := sort.Search(len(l.times), func(i int) bool { return !l.times[i].Before(t) })
	switch {
	case i == 0:
		return l.cpu[0]
	case i == len(l.times):
		return l.cpu[i-1]
	}
	span := l.times[i].Sub(l.times[i-1]).Seconds()
	return l.cpu[i-1] + (l.cpu[i]-l.cpu[i-1])*t.Sub(l.times[i-1]).Seconds()/span
}

// cpuPoller samples a daemon's CPU time every 50 ms until stopped, so a
// window can be cut into rounds after the fact.
type cpuPoller struct {
	quit chan struct{}
	done chan struct{}
	log  cpuLog
	err  error
}

func pollCPU(d *daemon) *cpuPoller {
	p := &cpuPoller{quit: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		c, err := d.cpuSeconds()
		if err != nil {
			p.err = err
			return
		}
		p.log.times = append(p.log.times, time.Now())
		p.log.cpu = append(p.log.cpu, c)
	}
	sample()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-p.quit:
				sample()
				return
			}
		}
	}()
	return p
}

func (p *cpuPoller) stop() (*cpuLog, error) {
	close(p.quit)
	<-p.done
	return &p.log, p.err
}
