package daed

import (
	"sort"
	"sync"
	"sync/atomic"

	"dae/internal/daed/store"
)

// latencyWindow is how many recent request latencies the percentile
// reservoir keeps. 4096 spans several daeload bursts while bounding the
// server's accounting footprint.
const latencyWindow = 4096

// stats aggregates the server's serving counters. All fields are updated
// atomically; the latency reservoir is a mutex-guarded ring.
type stats struct {
	requests   atomic.Int64 // requests accepted into a handler
	storeHits  atomic.Int64 // served directly from the artifact store
	collapsed  atomic.Int64 // joined an identical in-flight execution
	executions atomic.Int64 // pipeline executions actually run
	rejected   atomic.Int64 // 429s (queue saturated)
	canceled   atomic.Int64 // requests whose wait ended in cancellation/deadline
	faults     atomic.Int64 // pipeline executions that failed
	degraded   atomic.Int64 // responses served degraded (tenant quarantine)
	inFlight   atomic.Int64 // executions currently holding a worker slot
	waiting    atomic.Int64 // executions currently queued for a slot

	// cluster traffic
	proxied       atomic.Int64 // requests relayed to a key's owner
	replicatedIn  atomic.Int64 // artifact envelopes accepted from peers
	replicatedOut atomic.Int64 // artifact envelopes pushed to peers

	// self-healing
	repairRounds  atomic.Int64 // anti-entropy passes over the local store
	repairPushed  atomic.Int64 // envelopes repair passes installed on owners (join, drain, periodic)
	repairDropped atomic.Int64 // no-longer-owned keys released after confirming R copies
	readRepairs   atomic.Int64 // envelopes an owner pulled from a co-owner on a miss
	redirected    atomic.Int64 // 421s answered to stale epoch-aware clients

	mu   sync.Mutex
	ring [latencyWindow]float64
	n    int // total recorded; ring index is n % latencyWindow
}

// observe records one served request's latency in milliseconds.
func (s *stats) observe(ms float64) {
	s.mu.Lock()
	s.ring[s.n%latencyWindow] = ms
	s.n++
	s.mu.Unlock()
}

// percentiles returns the p50 and p99 of the reservoir (0, 0 when empty).
func (s *stats) percentiles() (p50, p99 float64) {
	s.mu.Lock()
	n := s.n
	if n > latencyWindow {
		n = latencyWindow
	}
	lat := make([]float64, n)
	copy(lat, s.ring[:n])
	s.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(lat)
	idx := func(p float64) int {
		i := int(p * float64(n-1))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	return lat[idx(0.50)], lat[idx(0.99)]
}

// StatsSnapshot is the wire form of GET /v1/stats.
type StatsSnapshot struct {
	Requests   int64 `json:"requests"`
	StoreHits  int64 `json:"store_hits"`
	Collapsed  int64 `json:"collapsed"`
	Executions int64 `json:"executions"`
	Rejected   int64 `json:"rejected"`
	Canceled   int64 `json:"canceled"`
	Faults     int64 `json:"faults"`
	Degraded   int64 `json:"degraded"`
	InFlight   int64 `json:"in_flight"`
	Waiting    int64 `json:"waiting"`
	// QuarantinedTenants counts tenants with recorded quarantine state.
	QuarantinedTenants int64   `json:"quarantined_tenants"`
	LatencyP50Ms       float64 `json:"latency_p50_ms"`
	LatencyP99Ms       float64 `json:"latency_p99_ms"`
	// Cluster traffic: requests proxied to a key's owner and artifact
	// envelopes replicated in/out.
	Proxied       int64 `json:"proxied"`
	ReplicatedIn  int64 `json:"replicated_in"`
	ReplicatedOut int64 `json:"replicated_out"`
	// Self-healing: repair passes and their pushes and drops (a join's
	// and a drain's pass included), read-repair pulls, and 421 redirects
	// answered to stale clients.
	RepairRounds  int64 `json:"repair_rounds"`
	RepairPushed  int64 `json:"repair_pushed"`
	RepairDropped int64 `json:"repair_dropped"`
	ReadRepairs   int64 `json:"read_repairs"`
	Redirected    int64 `json:"redirected"`
	// Draining reports the node has begun its drain protocol.
	Draining bool `json:"draining,omitempty"`
	// Ring is the node's membership view, as GET /v1/ring answers it (nil
	// on a standalone server).
	Ring *RingResponse `json:"ring,omitempty"`
	// Store is the artifact store's accounting: retained bytes vs budget,
	// evictions, and the startup scrub report.
	Store store.Stats `json:"store"`
}

func (s *stats) snapshot(quarantinedTenants int64) StatsSnapshot {
	p50, p99 := s.percentiles()
	return StatsSnapshot{
		Requests:           s.requests.Load(),
		StoreHits:          s.storeHits.Load(),
		Collapsed:          s.collapsed.Load(),
		Executions:         s.executions.Load(),
		Rejected:           s.rejected.Load(),
		Canceled:           s.canceled.Load(),
		Faults:             s.faults.Load(),
		Degraded:           s.degraded.Load(),
		InFlight:           s.inFlight.Load(),
		Waiting:            s.waiting.Load(),
		QuarantinedTenants: quarantinedTenants,
		LatencyP50Ms:       p50,
		LatencyP99Ms:       p99,
		Proxied:            s.proxied.Load(),
		ReplicatedIn:       s.replicatedIn.Load(),
		ReplicatedOut:      s.replicatedOut.Load(),
		RepairRounds:       s.repairRounds.Load(),
		RepairPushed:       s.repairPushed.Load(),
		RepairDropped:      s.repairDropped.Load(),
		ReadRepairs:        s.readRepairs.Load(),
		Redirected:         s.redirected.Load(),
	}
}
