package service

import (
	"dhisq/internal/artifact"
	"dhisq/internal/network"
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
	// TapedShots counts shots served without running the control stack:
	// off a replica's commit tape — a static program's control stack is
	// simulated once per replica, then replayed against the backend
	// (machine.Shot) — or, for a seeded job's shots past its first, off the
	// outcome map, one hash per bit (machine.TallyShot). TapeFallbacks
	// counts recording shots and outcome-map checks that failed, after
	// which that replica simulates the program in full; expected 0.
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
}

// Stats snapshots service counters plus the shared artifact-cache stats.
// Every s.stats mutation — admission, rejection, the worker's
// completion/failure/bind accounting, and congestion folding — happens
// under s.mu, so the snapshot is internally consistent (Completed never
// exceeds Submitted) no matter how many readers poll under load.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.NetStats = netStatsOf(s.net)
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
// (network.Config.LinkSerialization > 0).
type NetStats struct {
	// NetStallCycles counts queueing at every link and router port —
	// all traffic, router-originated hops included — matching
	// BENCH_fabric.json's total_stall_cycles, not its narrower
	// controller-charged net_stall_cycles.
	NetStallCycles uint64 `json:"net_total_stall_cycles"`
	NetMaxQueue    int    `json:"net_max_queue"`
	NetMessages    uint64 `json:"net_messages"`
}

// netStatsOf reads the wire view off the service's merged congestion
// digest (a disabled digest's counters are all zero).
func netStatsOf(net network.CongestionStats) NetStats {
	return NetStats{
		NetStallCycles: uint64(net.TotalStall()),
		NetMaxQueue:    net.MaxQueue(),
		NetMessages:    net.LinkMessages + net.PortMessages,
	}
}
