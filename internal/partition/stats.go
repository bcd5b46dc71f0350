package partition

import (
	"errors"
	"fmt"
	"strings"

	"lsmlab/internal/compaction"
	"lsmlab/internal/core"
	"lsmlab/internal/metrics"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
)

// Aggregation: the sharded store surfaces the same monitoring and
// maintenance API as a single tree — metrics, latency histograms,
// health, tree shape, scrub, checkpoint — by folding the per-shard
// answers together, and keeps the per-shard detail available for
// operators hunting hot-shard skew (ShardTreeStats, the per-shard rows
// in FormatStats).

// Flush flushes every shard.
func (s *Store) Flush() error {
	var errs []error
	for i, p := range s.parts {
		if err := p.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", shardDirName(i), err))
		}
	}
	return errors.Join(errs...)
}

// Compact runs a full manual compaction on every shard.
func (s *Store) Compact() error {
	var errs []error
	for i, p := range s.parts {
		if err := p.Compact(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", shardDirName(i), err))
		}
	}
	return errors.Join(errs...)
}

// WaitIdle blocks until every shard's background work has drained.
func (s *Store) WaitIdle() {
	for _, p := range s.parts {
		p.WaitIdle()
	}
}

// Metrics sums the per-shard counters; the Degraded gauge is 1 if any
// shard is degraded.
func (s *Store) Metrics() metrics.Snapshot {
	var total metrics.Snapshot
	for _, p := range s.parts {
		total = total.Add(p.Metrics())
	}
	return total
}

// CommitGroupSizes merges the per-shard commit-group-size histograms.
func (s *Store) CommitGroupSizes() metrics.HistogramSnapshot {
	var total metrics.HistogramSnapshot
	for _, p := range s.parts {
		total = total.Merge(p.CommitGroupSizes())
	}
	return total
}

// Latencies merges the per-shard latency histograms.
func (s *Store) Latencies() metrics.LatencySnapshot {
	var total metrics.LatencySnapshot
	for _, p := range s.parts {
		total = total.Merge(p.Latencies())
	}
	return total
}

// DiskUsageBytes sums the shards' footprints.
func (s *Store) DiskUsageBytes() uint64 {
	var total uint64
	for _, p := range s.parts {
		total += p.DiskUsageBytes()
	}
	return total
}

// TreeStats aggregates the shards' shapes: per-level figures are summed
// level-wise, the memtable and backlog gauges added, and LiveSeq is the
// maximum watermark (a scalar summary; the faithful form is SeqVector).
func (s *Store) TreeStats() core.TreeStats {
	var ts core.TreeStats
	for _, p := range s.parts {
		pt := p.TreeStats()
		ts.TotalBytes += pt.TotalBytes
		ts.TotalFiles += pt.TotalFiles
		ts.TotalRuns += pt.TotalRuns
		ts.MemtableLen += pt.MemtableLen
		ts.Immutables += pt.Immutables
		ts.MemtableBytes += pt.MemtableBytes
		ts.BacklogBytes += pt.BacklogBytes
		ts.L0Runs += pt.L0Runs
		if pt.LiveSeq > ts.LiveSeq {
			ts.LiveSeq = pt.LiveSeq
		}
		for i, l := range pt.Levels {
			for len(ts.Levels) <= i {
				ts.Levels = append(ts.Levels, core.LevelStats{Level: len(ts.Levels)})
			}
			ts.Levels[i].Runs += l.Runs
			ts.Levels[i].Files += l.Files
			ts.Levels[i].Bytes += l.Bytes
			ts.Levels[i].Capacity += l.Capacity
		}
	}
	return ts
}

// ShardTreeStats returns each shard's own shape, index-aligned with the
// shard numbering — the raw material for hot-shard dashboards.
func (s *Store) ShardTreeStats() []core.TreeStats {
	out := make([]core.TreeStats, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.TreeStats()
	}
	return out
}

// SpaceAmplification composes the per-shard estimates: total bytes
// across shards over total unique bytes (each shard's unique size is
// recovered from its own ratio).
func (s *Store) SpaceAmplification() float64 {
	var total, unique float64
	for _, p := range s.parts {
		t := float64(p.TreeStats().TotalBytes)
		if amp := p.SpaceAmplification(); amp > 0 {
			total += t
			unique += t / amp
		}
	}
	if unique == 0 {
		return 1
	}
	return total / unique
}

// Health reports degraded if any shard is degraded, carrying the first
// degraded shard's detail with its shard id prefixed to the failing op.
func (s *Store) Health() core.Health {
	var h core.Health
	for i, p := range s.parts {
		ph := p.Health()
		if ph.Degraded && !h.Degraded {
			h.Degraded = true
			h.Op = fmt.Sprintf("shard-%d/%s", i, ph.Op)
			h.Kind = ph.Kind
			h.Cause = ph.Cause
			h.SinceNs = ph.SinceNs
		}
		if ph.BgErr != "" && h.BgErr == "" {
			h.BgErr = ph.BgErr
			h.BgErrOp = fmt.Sprintf("shard-%d/%s", i, ph.BgErrOp)
		}
	}
	return h
}

// Tracer returns the tracer the shards share (they inherit one Options,
// so spans from every shard land in the same ring).
func (s *Store) Tracer() *trace.Tracer { return s.parts[0].Tracer() }

// SetShape retunes every shard to the layout online.
func (s *Store) SetShape(layout compaction.Layout, sizeRatio int) error {
	var errs []error
	for i, p := range s.parts {
		if err := p.SetShape(layout, sizeRatio); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", shardDirName(i), err))
		}
	}
	return errors.Join(errs...)
}

// Shape returns the shards' common strategy name and size ratio.
func (s *Store) Shape() (layout string, sizeRatio int) { return s.parts[0].Shape() }

// ScrubShards scrubs each shard, returning the per-shard reports with
// finding paths prefixed by the shard directory.
func (s *Store) ScrubShards() ([]core.ScrubReport, error) {
	reps := make([]core.ScrubReport, len(s.parts))
	var errs []error
	for i, p := range s.parts {
		rep, err := p.Scrub()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", shardDirName(i), err))
		}
		for j := range rep.Findings {
			rep.Findings[j].Path = vfs.Join(shardDirName(i), rep.Findings[j].Path)
		}
		reps[i] = rep
	}
	return reps, errors.Join(errs...)
}

// Scrub verifies every shard and merges the reports. ManifestOK is the
// conjunction across shards; findings carry their shard directory.
func (s *Store) Scrub() (core.ScrubReport, error) {
	reps, err := s.ScrubShards()
	return MergeScrubReports(reps), err
}

// MergeScrubReports folds per-shard scrub reports into one store-wide
// total. Callers that already hold per-shard reports must merge them
// rather than call Scrub again: scrubbing quarantines corrupt tables,
// so a second pass would no longer see what the first one found.
func MergeScrubReports(reps []core.ScrubReport) core.ScrubReport {
	total := core.ScrubReport{ManifestOK: true}
	for _, rep := range reps {
		total.Tables += rep.Tables
		total.TableBytes += rep.TableBytes
		total.VlogSegments += rep.VlogSegments
		total.ManifestOK = total.ManifestOK && rep.ManifestOK
		total.Findings = append(total.Findings, rep.Findings...)
	}
	return total
}

// Checkpoint writes a consistent online backup of every shard into
// dir/part-NNN, reproducing the store's own layout so the checkpoint
// reopens as a sharded store with the same count.
func (s *Store) Checkpoint(dir string) error {
	var errs []error
	for i, p := range s.parts {
		if err := p.Checkpoint(vfs.Join(dir, shardDirName(i))); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", shardDirName(i), err))
		}
	}
	return errors.Join(errs...)
}

// WorkloadProfile aggregates the per-shard workload characterizations
// into one partition-level view: counts and per-level attribution sum,
// distinct-key estimates add (shards hash-partition the key space, so
// their key sets are disjoint), hot keys merge by summed count, and
// the RUM ratios are recomputed from the summed terms.
func (s *Store) WorkloadProfile() core.WorkloadProfile {
	ps := make([]core.WorkloadProfile, len(s.parts))
	for i, p := range s.parts {
		ps[i] = p.WorkloadProfile()
	}
	return core.MergeProfiles(ps)
}

// FormatStats renders the aggregated counters with the single tree's
// renderer (core.RenderStats), followed by one row per shard — memtable
// bytes, L0 runs, compaction backlog, disk, health — so hot-shard skew
// is visible at a glance (lsmctl stats/top read this over the STATS
// verb).
func (s *Store) FormatStats(verbose bool) string {
	var b strings.Builder
	b.WriteString(core.RenderStats(s, verbose))
	fmt.Fprintf(&b, "\nshards=%d", len(s.parts))
	for i, p := range s.parts {
		ts := p.TreeStats()
		fmt.Fprintf(&b, "\n  shard %03d: mem=%dB l0_runs=%d backlog=%dB runs=%d files=%d disk=%dB degraded=%v",
			i, ts.MemtableBytes, ts.L0Runs, ts.BacklogBytes, ts.TotalRuns, ts.TotalFiles,
			p.DiskUsageBytes(), p.Health().Degraded)
	}
	return b.String()
}
