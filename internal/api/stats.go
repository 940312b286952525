package api

import "repro/internal/buildinfo"

// Stats is the GET /v1/stats (and /v2/stats) body.
type Stats struct {
	Build       buildinfo.Info `json:"build"`
	Workers     int            `json:"workers"`
	MaxInFlight int            `json:"max_in_flight"`
	// InFlight is the number of execution slots currently held — by v1
	// runs and v2 jobs alike, since both draw on one semaphore.
	InFlight int64 `json:"in_flight"`
	// QueueDepth counts work waiting for an execution slot: v1 requests
	// plus queued v2 jobs.
	QueueDepth int64 `json:"queue_depth"`
	Served     int64 `json:"served"`
	Failed     int64 `json:"failed"`
	// Cancelled counts v1 runs abandoned by their client (while queued or
	// mid-run); v2 job cancellations are under Jobs.Cancellations.
	Cancelled int64       `json:"cancelled"`
	Jobs      JobStats    `json:"jobs"`
	Cache     CacheStats  `json:"cache"`
	Engine    EngineStats `json:"engine"`
	Infer     InferStats  `json:"infer"`
}

// EngineStats reports the GEMM kernel configuration the inference and
// training layers run under (see internal/tensor).
type EngineStats struct {
	Threads    int    `json:"threads"`     // resolved kernel parallelism
	GemmConfig string `json:"gemm_config"` // KCxNC panel blocking
	SIMD       bool   `json:"simd"`        // AVX2+FMA kernels active
}

// CacheStats is the sweep engine cache's snapshot (sweep.Cache.Stats) and
// its section of Stats: totals over the memo tables, then each table under
// the name the cache gives it.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`  // hits / (hits + misses), 0 before any lookup
	Bytes     int64   `json:"bytes"`     // estimated footprint of the cached artifacts
	MaxBytes  int64   `json:"max_bytes"` // configured bound, 0 = unbounded

	Tables map[string]TableStats `json:"tables"`
}

// TableStats is one memo table's counters.
type TableStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// JobStats is the jobs section of Stats.
type JobStats struct {
	// Submitted counts every job ever accepted.
	Submitted int64 `json:"submitted"`
	// QueueDepth is the number of jobs currently queued (no shard of
	// theirs is executing yet).
	QueueDepth int64 `json:"queue_depth"`
	// Cancellations counts jobs that reached the cancelled state.
	Cancellations int64 `json:"cancellations"`
	// ByState counts the retained jobs per lifecycle state.
	ByState map[JobState]int `json:"by_state"`
	// Transitions counts lifecycle transitions ever applied per target
	// state; unlike ByState it is monotone (eviction never decrements it).
	Transitions map[JobState]int64 `json:"transitions"`
	// Retained is the number of jobs currently held for status queries.
	Retained int `json:"retained"`

	// Store names the state backend ("memory", "journal", ...).
	Store string `json:"store"`
	// Workers is the shard-claiming pool size.
	Workers int `json:"workers"`
	// ShardsClaimed counts shard claims ever granted to this process,
	// including retries after a lost lease.
	ShardsClaimed int64 `json:"shards_claimed"`
	// LeasesExpired counts claims the supervisor reaped after their lease
	// lapsed without a heartbeat.
	LeasesExpired int64 `json:"leases_expired"`
	// LeasesLost counts claims a worker abandoned mid-run because its
	// heartbeat was rejected (or the store failed it).
	LeasesLost int64 `json:"leases_lost"`
	// Requeues counts shards returned to the queue for another attempt.
	Requeues int64 `json:"requeues"`
	// Recovered counts non-terminal jobs re-queued from the store at boot.
	Recovered int64 `json:"recovered"`
	// StoreErrors counts store operations that failed (fault injection,
	// disk trouble); the orthogonal lease machinery retries the work.
	StoreErrors int64 `json:"store_errors"`
	// ActiveLeases is the number of shards this process is executing now.
	ActiveLeases int64 `json:"active_leases"`
}

// InferStats is the inference batcher's section of Stats.
type InferStats struct {
	Model    string `json:"model"`
	MaxBatch int    `json:"max_batch"`
	MaxDelay string `json:"max_delay"`
	MinDelay string `json:"min_delay"`
	QueueCap int    `json:"queue_cap"`
	Replicas int    `json:"replicas"`
	// ShedEnabled reports whether admission control is on (full queue →
	// 429) rather than blocking senders.
	ShedEnabled bool `json:"shed_enabled"`
	// PackedKB is one replica's packed fp16 weight footprint; the pool holds
	// Replicas independent copies.
	PackedKB float64 `json:"packed_weight_kb"`

	Requests        int64 `json:"requests"`
	Items           int64 `json:"items"`
	Batches         int64 `json:"batches"`
	FullFlushes     int64 `json:"full_flushes"`
	DeadlineFlushes int64 `json:"deadline_flushes"`
	Cancelled       int64 `json:"cancelled"`
	// Shed counts requests rejected at admission (429).
	Shed int64 `json:"shed"`
	// ShortDeadlines counts batches that started with an adaptive (below
	// MaxDelay) coalesce deadline because the queue was non-empty.
	ShortDeadlines int64 `json:"short_deadlines"`
	QueueDepth     int   `json:"queue_depth"`
	// MeanBatchSize is items/batches — the coalescing headline: >1 means
	// concurrent requests actually shared forward passes.
	MeanBatchSize float64 `json:"mean_batch_size"`
	// PerReplica is each pool member's share, in replica index order; the
	// load smoke asserts the shares stay within a constant factor of fair.
	PerReplica []ReplicaStats `json:"per_replica"`
}

// ReplicaStats is one inference pool member's share of the served work.
type ReplicaStats struct {
	Batches int64 `json:"batches"`
	Items   int64 `json:"items"`
}
