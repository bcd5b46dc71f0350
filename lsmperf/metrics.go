package main

import (
	lsmmetrics "lsmlab/internal/metrics"
	"lsmlab/internal/trace"
)

// div is a/b, or 0 when b is 0 (a layer the workload does not use).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the metrics a user of the store sees.
func endToEnd(p *phase) map[string]metricValue {
	get, put, scan := summarize(p.lat[opGet]...), summarize(p.lat[opPut]...), summarize(p.lat[opScan]...)
	return map[string]metricValue{
		"ops_per_s":   {p.opsPerSec(), "1/s"},
		"get_p50_us":  {get.p50, "us"},
		"get_p99_us":  {get.p99, "us"},
		"put_p50_us":  {put.p50, "us"},
		"put_p95_us":  {put.p95, "us"},
		"scan_p50_us": {scan.p50, "us"},
		"scan_p95_us": {scan.p95, "us"},
		"write_amp":   {medianFloat(p.writeAmps), "ratio"},
		"space_amp":   {medianFloat(p.spaceAmps), "ratio"},
		"setup_s":     {medianFloat(p.setupS), "s"},
		"mem_peak_mb": {float64(p.memPeak) / (1 << 20), "MiB"},
	}
}

// perLayer computes the per-layer metrics of the traced phase p. The
// Go runtime's counters come from the untraced phase base, since the
// tracing itself allocates.
func perLayer(base, p *phase, tr *tracing, genS float64) map[string]metricValue {
	m, io := p.m, p.io
	gets, puts, scans := float64(p.timedOps[opGet]), float64(p.timedOps[opPut]), float64(p.timedOps[opScan])
	// Foreground time: every caller's share of the timed phase.
	fgNs := float64(p.elapsed.Nanoseconds()) * callers
	sstRead, walWrite, walSync := io[classSST][ioRead], io[classWAL][ioWrite], io[classWAL][ioSync]

	// Mean time inside core per get and put: the benchmark's own timing
	// of its calls in process, the engine's spans when served.
	getUs, putUs := p.callMeanUs(opGet), p.callMeanUs(opPut)
	if len(tr.clients) > 0 {
		getUs = meanUs(tr.opSpans(trace.OpGet))
		putUs = meanUs(tr.opSpans(trace.OpPut))
	}
	flushes, flushNs := tr.bg.totals("flush", p.windowFrom, p.windowTo)
	compactions, compactNs := tr.bg.totals("compaction", p.windowFrom, p.windowTo)

	serverNs := func(op string) []int64 {
		var ns []int64
		for _, r := range tr.clientRecords(op) {
			ns = append(ns, r.ServerNs)
		}
		return ns
	}
	var waitNs []int64
	for _, r := range tr.clientRecords("get") {
		waitNs = append(waitNs, r.ClientNs-r.ServerNs)
	}
	baseOps := float64(base.timedOps[opGet] + base.timedOps[opPut] + base.timedOps[opScan])

	v := func(x float64, unit string) metricValue { return metricValue{x, unit} }
	return map[string]metricValue{
		// Read path.
		"cache.hit_rate":             v(m.CacheHitRate(), "ratio"),
		"cache.misses_per_get":       v(div(float64(m.CacheMisses), gets), "count"),
		"bloom.probes_per_get":       v(div(float64(m.FilterProbes), gets), "count"),
		"bloom.negatives_per_get":    v(div(float64(m.FilterNegatives), gets), "count"),
		"bloom.false_positive_rate":  v(falsePositiveRate(m), "ratio"),
		"sstable.blocks_per_get":     v(div(float64(m.BlockReads), gets), "count"),
		"sstable.read_bytes_per_get": v(div(float64(sstRead.bytes), gets), "B"),
		"core.runs_per_get":          v(div(float64(m.RunsProbed), gets), "count"),
		"core.get_self_us":           v(selfUs(getUs, float64(sstRead.ns), gets), "us"),
		"vfs.sst.read_calls":         v(float64(sstRead.calls), "count"),
		"vfs.sst.read_us_mean":       v(div(float64(sstRead.ns), float64(sstRead.calls))/1e3, "us"),
		"vfs.sst.read_busy_share":    v(div(float64(sstRead.ns), fgNs), "ratio"),
		// Commit path.
		"core.commit_group_size": v(m.AvgCommitGroupSize(), "count"),
		"core.put_self_us":       v(selfUs(putUs, float64(walWrite.ns+walSync.ns), puts), "us"),
		"wal.syncs_per_put":      v(div(float64(walSync.calls), puts), "count"),
		"wal.bytes_per_put":      v(div(float64(walWrite.bytes), puts), "B"),
		"wal.sync_us_mean":       v(div(float64(walSync.ns), float64(walSync.calls))/1e3, "us"),
		"wal.sync_busy_share":    v(div(float64(walSync.ns), fgNs), "ratio"),
		// Background work.
		"core.flush_count":                     v(float64(flushes), "count"),
		"core.flush_busy_ms":                   v(float64(flushNs)/1e6, "ms"),
		"compaction.count":                     v(float64(compactions), "count"),
		"compaction.busy_ms":                   v(float64(compactNs)/1e6, "ms"),
		"compaction.read_bytes_per_user_byte":  v(div(float64(m.CompactionBytesRead), float64(m.BytesIngested)), "ratio"),
		"compaction.write_bytes_per_user_byte": v(div(float64(m.CompactionBytesWritten), float64(m.BytesIngested)), "ratio"),
		"core.stall_ms":                        v(float64(m.StallNs)/1e6, "ms"),
		"core.write_stalls":                    v(float64(m.WriteStalls), "count"),
		"vfs.sst.write_bytes":                  v(float64(io[classSST][ioWrite].bytes), "B"),
		"vfs.sst.syncs":                        v(float64(io[classSST][ioSync].calls), "count"),
		"vfs.manifest.write_bytes":             v(float64(io[classManifest][ioWrite].bytes), "B"),
		"vfs.manifest.syncs":                   v(float64(io[classManifest][ioSync].calls), "count"),
		// Serving path.
		"server.get_us_p50":          v(float64(percentile(serverNs("get"), 50))/1e3, "us"),
		"server.put_us_p50":          v(float64(percentile(serverNs("put"), 50))/1e3, "us"),
		"server.scan_us_p50":         v(float64(percentile(serverNs("scan"), 50))/1e3, "us"),
		"client.get_wait_us_p50":     v(float64(percentile(waitNs, 50))/1e3, "us"),
		"client.get_wait_us_p99":     v(float64(percentile(waitNs, 99))/1e3, "us"),
		"wire.bytes_per_request":     v(div(float64(p.net.NetBytesRead+p.net.NetBytesWritten), float64(p.net.NetRequests)), "B"),
		"core.scan_entries_per_scan": v(div(float64(p.scanEntries), scans), "count"),
		"admission.throttled":        v(float64(p.throttled), "count"),
		// Shared costs, from the untraced phase.
		"runtime.allocs_per_op":      v(div(float64(base.rt.allocs), baseOps), "count"),
		"runtime.alloc_bytes_per_op": v(div(float64(base.rt.allocBytes), baseOps), "B"),
		"runtime.gc_cycles":          v(float64(base.rt.gcCycles), "count"),
		"runtime.gc_pause_ms":        v(float64(base.rt.pauseNs)/1e6, "ms"),
		// Harness.
		"bench.gen_s":        v(genS, "s"),
		"trace.overhead_pct": v(100*(1-div(p.opsPerSec(), base.opsPerSec())), "%"),
	}
}

// selfUs is a layer's mean time per op minus the time its children
// (childNs in total over ops operations) took, in microseconds.
func selfUs(meanUs, childNs, ops float64) float64 {
	if ops == 0 {
		return 0
	}
	return meanUs - childNs/ops/1e3
}

func meanUs(ns []int64) float64 {
	var sum int64
	for _, n := range ns {
		sum += n
	}
	return div(float64(sum), float64(len(ns))) / 1e3
}

// falsePositiveRate is the share of filter probes on runs without the
// key that the filter let through. The engine's FilterFalsePos counts
// every filtered run that did not hold the key, the filter's negatives
// included, so it is the denominator and the negatives come off it.
func falsePositiveRate(m lsmmetrics.Snapshot) float64 {
	return div(float64(m.FilterFalsePos-m.FilterNegatives), float64(m.FilterFalsePos))
}
