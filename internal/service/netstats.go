package service

import (
	"dhisq/internal/artifact"
	"dhisq/internal/network"
	"dhisq/internal/runner"
)

// Stats is a point-in-time snapshot of service health, the payload of
// dhisq-serve's /v1/stats.
type Stats struct {
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Rejected   uint64 `json:"rejected"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	// BatchedJobs counts jobs that found pooled replicas: warm machines
	// already loaded with their artifact, so none had to be built. The
	// name is from "batched onto warm replicas" (JobStatus.Batched); it
	// never meant shot lanes, and says nothing about the commit tape.
	BatchedJobs uint64 `json:"batched_jobs"`
	// TapedShots counts shots served off a replica's commit tape — a
	// static program's control stack is simulated once per replica, then
	// replayed against the backend (machine.Shot). TapeFallbacks counts
	// recording shots whose self-check failed, after which that replica
	// simulates the program in full; expected 0.
	TapedShots    uint64 `json:"taped_shots"`
	TapeFallbacks uint64 `json:"tape_fallbacks"`
	// Binds counts BindParams patch operations performed on the cached
	// path (one per parameter-bound job, one per sweep point); BindHits
	// counts parameter-bound jobs whose compiled skeleton was served from
	// the artifact cache — the compile the binding layer saved.
	Binds          uint64         `json:"binds"`
	BindHits       uint64         `json:"bind_hits"`
	PooledReplicas int            `json:"pooled_replicas"`
	Cache          artifact.Stats `json:"artifact_cache"`
	// NetStats folds the congestion digest of every completed job's shots.
	NetStats
	// Replacements counts replica-pool groups re-placed via congestion
	// feedback (0 unless Config.ReplaceStallThreshold is set).
	Replacements uint64 `json:"replacements"`
}

// Stats snapshots service counters plus the shared artifact-cache stats.
// Every s.stats mutation — admission, rejection, the worker's
// completion/failure/bind accounting, and congestion folding — happens
// under s.mu, so the snapshot is internally consistent (Completed never
// exceeds Submitted) no matter how many readers poll under load.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	s.mu.Unlock()
	st.PooledReplicas = s.pool.size()
	st.Cache = s.cfg.Artifacts.Stats()
	return st
}

// NetStats is the wire view of the congestion digest
// (network.CongestionStats): embedded in Stats, it is what /v1/stats shows
// summed over every shot of every completed job. All zero unless jobs ran
// with the fabric's contention model enabled
// (network.Config.LinkSerialization > 0), except the collective operation
// count, which the collective layer keeps either way.
type NetStats struct {
	// NetStallCycles counts queueing at every link and router port —
	// all traffic, router-originated hops included — matching
	// BENCH_fabric.json's total_stall_cycles, not its narrower
	// controller-charged net_stall_cycles.
	NetStallCycles uint64 `json:"net_total_stall_cycles"`
	NetMaxQueue    int    `json:"net_max_queue"`
	NetMessages    uint64 `json:"net_messages"`
	NetOverflows   uint64 `json:"net_overflows"`
	// Collective-layer counters (network.CongestionStats): operations the
	// fabric's collective layer executed, and the queueing cycles their
	// messages accrued. Ops count even with the contention model disabled;
	// the stall needs finite link bandwidth.
	NetCollectiveOps   uint64 `json:"net_collective_ops"`
	NetCollectiveStall uint64 `json:"net_collective_stall_cycles"`
}

// netStatsOf reads the wire view off a job's merged congestion digest.
func netStatsOf(net network.CongestionStats) NetStats {
	d := NetStats{
		NetCollectiveOps:   net.CollectiveOps,
		NetCollectiveStall: uint64(net.CollectiveStall),
	}
	if !net.Enabled {
		return d
	}
	d.NetStallCycles = uint64(net.TotalStall())
	d.NetMessages = net.LinkMessages + net.PortMessages
	d.NetOverflows = net.LinkOverflows + net.PortOverflows
	d.NetMaxQueue = net.MaxQueue()
	return d
}

// merge combines two jobs' views: sums, and a max.
func (d NetStats) merge(e NetStats) NetStats {
	d.NetStallCycles += e.NetStallCycles
	d.NetMessages += e.NetMessages
	d.NetOverflows += e.NetOverflows
	d.NetCollectiveOps += e.NetCollectiveOps
	d.NetCollectiveStall += e.NetCollectiveStall
	d.NetMaxQueue = max(d.NetMaxQueue, e.NetMaxQueue)
	return d
}

// aggregate merges the congestion of every shot of every point a job ran (a
// plain job is one point) into the job's digest — here, so that it outlives
// the shot sets a sweep drops, which is how sweep jobs still move the
// /v1/stats net_* counters and feed the re-place loop.
func aggregate(pts []runner.SweepPoint) (net network.CongestionStats) {
	for _, p := range pts {
		for _, shot := range p.Set.Shots {
			net = net.Merge(shot.Result.Net)
		}
	}
	return net
}
