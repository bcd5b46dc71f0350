// Package metrics collects the engine-wide counters from which the
// experiments derive write amplification, read amplification, space
// amplification, stall time, and filter effectiveness. All counters are
// lock-free and safe for concurrent update.
package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
)

// Counters declares every counter once. Metrics instantiates it with
// atomic cells for the hot path, Snapshot with plain values; Snapshot,
// Sub, Add and the /metrics exposition all iterate these fields, so a
// new counter is one field here. Each field's prom tag is its
// Prometheus series name (without the lsmlab_ prefix), optionally
// followed by ",gauge"; help is its HELP text. Counters sum across
// shards and subtract across intervals; gauges merge by max and an
// interval keeps the later value.
type Counters[T any] struct {
	// Write path.
	Puts          T `prom:"puts_total" help:"User put operations."`
	Deletes       T `prom:"deletes_total" help:"User delete operations."` // all kinds
	BytesIngested T `prom:"bytes_ingested_total" help:"User key+value bytes accepted."`
	WALBytes      T `prom:"wal_bytes_total" help:"Bytes appended to the write-ahead log."`

	// Group commit (the leader-based commit pipeline).
	CommitGroups  T `prom:"commit_groups_total" help:"Commit groups written (one WAL write each)."`
	CommitBatches T `prom:"commit_batches_total" help:"Batches committed across all groups."`
	WALSyncs      T `prom:"wal_syncs_total" help:"WAL syncs issued."`                        // one per group under SyncWAL
	WALSyncsSaved T `prom:"wal_syncs_saved_total" help:"Syncs avoided by group coalescing."` // group size - 1 each

	// Read path. FilterFalsePos counts every filtered run (one without
	// range tombstones) that did not hold the key, the filter's
	// negatives included: FilterFalsePos - FilterNegatives is the
	// filter's true false positives.
	Gets            T `prom:"gets_total" help:"User point lookups."`
	GetHits         T `prom:"get_hits_total" help:"Lookups that found a live value."`
	Scans           T `prom:"scans_total" help:"User range scans."`
	ScanEntries     T `prom:"scan_entries_total" help:"Entries returned by range scans."` // mean scan length = ScanEntries/Scans
	RunsProbed      T `prom:"runs_probed_total" help:"Sorted runs consulted by point lookups."`
	FilterProbes    T `prom:"filter_probes_total" help:"Bloom filter probes."`
	FilterNegatives T `prom:"filter_negatives_total" help:"Filter probes that skipped a run."`
	FilterFalsePos  T `prom:"filter_false_positives_total" help:"Filtered runs probed that did not hold the key, filter negatives included."`

	// Structure maintenance.
	Flushes                T `prom:"flushes_total" help:"Memtable flushes."`
	FlushBytes             T `prom:"flush_bytes_total" help:"Bytes written by flushes."`
	Compactions            T `prom:"compactions_total" help:"Compaction jobs completed."`
	AgeCompactions         T `prom:"age_compactions_total" help:"Compaction jobs triggered by tombstone age."` // FADE
	CompactionBytesRead    T `prom:"compaction_bytes_read_total" help:"Bytes read by compactions."`
	CompactionBytesWritten T `prom:"compaction_bytes_written_total" help:"Bytes written by compactions."`
	TombstonesDropped      T `prom:"tombstones_dropped_total" help:"Tombstones purged by compaction."`
	EntriesDropped         T `prom:"entries_dropped_total" help:"Invalidated entries purged by compaction."`

	// Stalls.
	StallNs     T `prom:"stall_ns_total" help:"Total time writers spent stalled, ns."`
	WriteStalls T `prom:"write_stalls_total" help:"Write stall events."`
	StallAborts T `prom:"stall_aborts_total" help:"Writes aborted by the stall timeout (backpressure)."`
	ThrottleNs  T `prom:"throttle_ns_total" help:"Time compactions paused in the bandwidth throttle, ns."`

	// Block cache and table I/O. BlockReadsCached is the subset of
	// BlockReads served from the block cache without touching the
	// filesystem.
	CacheHits        T `prom:"cache_hits_total" help:"Block cache hits."`
	CacheMisses      T `prom:"cache_misses_total" help:"Block cache misses."`
	BlockReads       T `prom:"block_reads_total" help:"Data-block fetches by sstable readers."`
	BlockReadsCached T `prom:"block_reads_cached_total" help:"Block fetches served from the cache."`

	// Robustness. Degraded is a 0/1 gauge; the scrub counters accumulate
	// across DB.Scrub passes.
	Degraded         T `prom:"degraded,gauge" help:"1 once the engine is read-only degraded."`
	BgRetries        T `prom:"bg_retries_total" help:"Failed background job attempts."`
	ScrubbedTables   T `prom:"scrubbed_tables_total" help:"Sstables checked by scrubs."`
	ScrubCorruptions T `prom:"scrub_corruptions_total" help:"Corrupt files found by scrubs."`

	// Network serving layer (maintained by internal/server; a server
	// owns its own Metrics instance, separate from the engine's, so
	// these stay zero on an embedded DB). ConnsOpened - ConnsClosed is
	// the live connection count.
	ConnsOpened      T `prom:"conns_opened_total" help:"Connections accepted."`
	ConnsClosed      T `prom:"conns_closed_total" help:"Connections fully torn down."`
	ConnsRejected    T `prom:"conns_rejected_total" help:"Connections refused at the limit."`
	NetRequests      T `prom:"net_requests_total" help:"Request frames received."`
	NetRequestErrors T `prom:"net_request_errors_total" help:"Requests answered with an error status."`
	NetThrottled     T `prom:"net_throttled_total" help:"Requests answered with StatusThrottled (quota or backpressure)."`
	NetBytesRead     T `prom:"net_bytes_read_total" help:"Request frame bytes received."`
	NetBytesWritten  T `prom:"net_bytes_written_total" help:"Response frame bytes sent."`

	// Replication. Leader-side counters are maintained by the serving
	// layer as it handles the replication verbs; follower-side counters
	// are merged into the engine snapshot by the replica engine wrapper.
	// On a server that is neither, all stay zero.
	ReplSubscribes     T `prom:"repl_subscribes_total" help:"Follower stream subscriptions accepted."`
	ReplFramesShipped  T `prom:"repl_frames_shipped_total" help:"WAL group frames streamed to followers."`
	ReplGapsSignaled   T `prom:"repl_gaps_total" help:"Gap frames sent (leader) or stream gaps observed (follower)."`
	ReplAcks           T `prom:"repl_acks_total" help:"Follower watermark acks recorded."`
	ReplRepairPages    T `prom:"repl_repair_pages_total" help:"Merkle repair pages served."`
	ReplBatchesApplied T `prom:"repl_batches_applied_total" help:"Shipped WAL batches applied by this follower."`
	ReplRepairOps      T `prom:"repl_repair_ops_total" help:"Ops ingested via anti-entropy repair."`
}

// Field describes one declared counter.
type Field struct {
	Name  string // Prometheus series name, without the lsmlab_ prefix
	Help  string
	Gauge bool
}

// fields holds the Counters metadata in declaration order, read once
// from the struct tags.
var fields = func() []Field {
	t := reflect.TypeOf(Counters[int64]{})
	fs := make([]Field, t.NumField())
	for i := range fs {
		tag := t.Field(i).Tag
		name, kind, _ := strings.Cut(tag.Get("prom"), ",")
		fs[i] = Field{Name: name, Help: tag.Get("help"), Gauge: kind == "gauge"}
	}
	return fs
}()

// Metrics is the set of counters maintained by one engine instance.
type Metrics struct {
	Counters[atomic.Int64]

	// Latency distributions (log-bucketed; see histogram.go). Counters
	// answer "how much", these answer "how long" — the tail behavior
	// that separates compaction designs (§2.2.3/§2.2.5).
	GetNs        Histogram
	PutNs        Histogram
	ScanNextNs   Histogram
	FlushNs      Histogram
	CompactionNs Histogram

	// CommitGroupSize records batches-per-group (a count, not a
	// duration; the log-linear buckets work for any int64). Its tail
	// shows how far write concurrency actually coalesces.
	CommitGroupSize Histogram

	// RequestNs records end-to-end network request latency (frame
	// decoded → response queued), maintained by internal/server.
	RequestNs Histogram
}

// GroupSizes returns a snapshot of the commit-group-size histogram
// (batches per group; values are counts, not nanoseconds).
func (m *Metrics) GroupSizes() HistogramSnapshot { return m.CommitGroupSize.Snapshot() }

// Latencies returns a snapshot of every latency histogram.
func (m *Metrics) Latencies() LatencySnapshot {
	return LatencySnapshot{
		Get:        m.GetNs.Snapshot(),
		Put:        m.PutNs.Snapshot(),
		ScanNext:   m.ScanNextNs.Snapshot(),
		Flush:      m.FlushNs.Snapshot(),
		Compaction: m.CompactionNs.Snapshot(),
		Request:    m.RequestNs.Snapshot(),
	}
}

// Snapshot is an immutable copy of the counters at one instant.
type Snapshot Counters[int64]

// Snapshot returns a copy of the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	src, dst := reflect.ValueOf(&m.Counters).Elem(), reflect.ValueOf(&s).Elem()
	for i := range fields {
		dst.Field(i).SetInt(src.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	return s
}

// Each calls fn with every counter's metadata and value, in
// declaration order.
func (s Snapshot) Each(fn func(f Field, v int64)) {
	v := reflect.ValueOf(&s).Elem()
	for i, f := range fields {
		fn(f, v.Field(i).Int())
	}
}

// combine folds o into s field by field: counters through counter,
// gauges through gauge.
func (s Snapshot) combine(o Snapshot, counter, gauge func(a, b int64) int64) Snapshot {
	a, b := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&o).Elem()
	for i, f := range fields {
		op := counter
		if f.Gauge {
			op = gauge
		}
		a.Field(i).SetInt(op(a.Field(i).Int(), b.Field(i).Int()))
	}
	return s
}

// Sub returns s - o counter-wise, for measuring an interval. Gauges
// keep s's value: an interval reports the current state, not a delta
// (which would always be 0 and hide the condition).
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return s.combine(o, func(a, b int64) int64 { return a - b }, func(a, _ int64) int64 { return a })
}

// Add returns s + o counter-wise, for summing shards or an engine and
// its serving layer. Gauges take the max, so one degraded shard marks
// the sum degraded.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return s.combine(o, func(a, b int64) int64 { return a + b }, func(a, b int64) int64 { return max(a, b) })
}

// AvgCommitGroupSize is the mean number of batches coalesced per commit
// group — 1.0 means writes never overlapped, higher means the group
// commit is amortizing WAL writes (and syncs, under SyncWAL).
func (s Snapshot) AvgCommitGroupSize() float64 {
	if s.CommitGroups == 0 {
		return 0
	}
	return float64(s.CommitBatches) / float64(s.CommitGroups)
}

// WriteAmplification is the ratio of bytes written to storage (flushes
// plus compactions, excluding the WAL) to user bytes ingested.
func (s Snapshot) WriteAmplification() float64 {
	if s.BytesIngested == 0 {
		return 0
	}
	return float64(s.FlushBytes+s.CompactionBytesWritten) / float64(s.BytesIngested)
}

// ReadAmplification is the average number of sorted runs probed per
// point lookup.
func (s Snapshot) ReadAmplification() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.RunsProbed) / float64(s.Gets)
}

// FilterEffectiveness is the fraction of filter probes that skipped a
// run.
func (s Snapshot) FilterEffectiveness() float64 {
	if s.FilterProbes == 0 {
		return 0
	}
	return float64(s.FilterNegatives) / float64(s.FilterProbes)
}

// CacheHitRate is the fraction of block-cache lookups that hit.
func (s Snapshot) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// String renders the headline numbers for logs and the lsmctl stats
// command.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"puts=%d gets=%d scans=%d flushes=%d compactions=%d WA=%.2f RA=%.2f filter_eff=%.2f stalls=%d stall_ms=%d",
		s.Puts, s.Gets, s.Scans, s.Flushes, s.Compactions,
		s.WriteAmplification(), s.ReadAmplification(), s.FilterEffectiveness(),
		s.WriteStalls, s.StallNs/1e6)
}
