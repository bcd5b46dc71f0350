// The HTTP debug plane: a second, read-only listener exposing the
// engine's live state to humans and scrapers — Prometheus-text
// /metrics, Go pprof profiles, a health probe, and JSON dumps of the
// event ring and the trace ring. It shares nothing with the data
// protocol: the wire stays binary and minimal, while operators get
// curl-able introspection on a separate port (lsmserved -debug-addr).

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"

	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/metrics"
	"lsmlab/internal/trace"
)

// DebugHandler returns the debug-plane HTTP handler for this server:
//
//	/metrics        Prometheus text exposition (counters, gauges,
//	                latency quantile summaries, per-level tree shape)
//	/healthz        engine health JSON; 503 once degraded
//	/events         the event ring, oldest first, as JSON
//	/traces         the captured span ring, oldest first, as JSON
//	/workload       the live workload profile (core.WorkloadProfile) as
//	                JSON: op mix, skew, hot keys, tenants, per-level RUM
//	/debug/pprof/*  the standard Go profiles
//
// ring and tr may be nil; the corresponding endpoints then serve empty
// lists. The handler only reads — it can be exposed on a port the data
// protocol never touches.
func (s *Server) DebugHandler(ring *events.Ring, tr *trace.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.writeMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeHealth(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		writeEvents(w, ring)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		writeTraces(w, tr)
	})
	mux.HandleFunc("/workload", func(w http.ResponseWriter, r *http.Request) {
		s.writeWorkload(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// promWriter accumulates Prometheus text exposition format. Every
// series carries the lsmlab_ prefix; HELP/TYPE headers precede each
// family so the output parses under promtool and scrapes cleanly.
type promWriter struct{ b strings.Builder }

func (p *promWriter) counter(name, help string, v int64) {
	fmt.Fprintf(&p.b, "# HELP lsmlab_%s %s\n# TYPE lsmlab_%s counter\nlsmlab_%s %d\n",
		name, help, name, name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	fmt.Fprintf(&p.b, "# HELP lsmlab_%s %s\n# TYPE lsmlab_%s gauge\nlsmlab_%s %g\n",
		name, help, name, name, v)
}

// gaugeVec opens a labeled gauge family; emit rows with sample.
func (p *promWriter) gaugeVec(name, help string) {
	fmt.Fprintf(&p.b, "# HELP lsmlab_%s %s\n# TYPE lsmlab_%s gauge\n", name, help, name)
}

// counterVec opens a labeled counter family; emit rows with csample.
func (p *promWriter) counterVec(name, help string) {
	fmt.Fprintf(&p.b, "# HELP lsmlab_%s %s\n# TYPE lsmlab_%s counter\n", name, help, name)
}

func (p *promWriter) csample(name, labels string, v int64) {
	fmt.Fprintf(&p.b, "lsmlab_%s{%s} %d\n", name, labels, v)
}

func (p *promWriter) sample(name, labels string, v float64) {
	fmt.Fprintf(&p.b, "lsmlab_%s{%s} %g\n", name, labels, v)
}

// summary renders one latency histogram as a Prometheus summary:
// quantile series plus _sum and _count.
func (p *promWriter) summary(name, help string, h metrics.HistogramSnapshot) {
	fmt.Fprintf(&p.b, "# HELP lsmlab_%s %s\n# TYPE lsmlab_%s summary\n", name, help, name)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(&p.b, "lsmlab_%s{quantile=%q} %d\n", name, fmt.Sprintf("%g", q), h.Quantile(q))
	}
	fmt.Fprintf(&p.b, "lsmlab_%s_sum %d\nlsmlab_%s_count %d\n", name, h.Sum, name, h.N)
}

// writeMetrics renders the full /metrics payload: engine counters from
// the DB, network counters from the server, derived ratios, the
// per-level tree shape, and the latency summaries.
func (s *Server) writeMetrics(w http.ResponseWriter) {
	eng := s.db.Metrics() // engine counters
	net := s.m.Snapshot() // serving-layer counters
	var p promWriter

	// Every declared counter and gauge in one pass. The engine leaves
	// the serving-layer fields at 0 and the server the engine's, so the
	// sum is each side's own value; repl_gaps_total, kept by both, adds
	// the leader's gap frames to the follower's observed gaps.
	eng.Add(net).Each(func(f metrics.Field, v int64) {
		if f.Gauge {
			p.gauge(f.Name, f.Help, float64(v))
		} else {
			p.counter(f.Name, f.Help, v)
		}
	})
	p.gauge("conns_open", "Connections currently being served.", float64(net.ConnsOpened-net.ConnsClosed))

	// Multi-tenancy: one row per tenant seen, labeled by namespace (the
	// default tenant — separator-free keys — is labeled "").
	if ts := s.opts.Admission.Stats(); len(ts) > 0 {
		p.counterVec("tenant_requests_total", "Admitted requests per tenant.")
		for _, t := range ts {
			p.csample("tenant_requests_total", fmt.Sprintf("tenant=%q", t.Tenant), t.Requests)
		}
		p.counterVec("tenant_throttled_total", "Requests throttled (quota-rejected or backpressure-shed) per tenant.")
		for _, t := range ts {
			p.csample("tenant_throttled_total", fmt.Sprintf("tenant=%q", t.Tenant), t.Throttled)
		}
		p.counterVec("tenant_bytes_in_total", "Write payload bytes admitted per tenant.")
		for _, t := range ts {
			p.csample("tenant_bytes_in_total", fmt.Sprintf("tenant=%q", t.Tenant), t.BytesIn)
		}
		p.counterVec("tenant_bytes_out_total", "Response bytes charged per tenant.")
		for _, t := range ts {
			p.csample("tenant_bytes_out_total", fmt.Sprintf("tenant=%q", t.Tenant), t.BytesOut)
		}
		p.gaugeVec("tenant_throttling", "1 while the tenant is inside a throttle episode.")
		for _, t := range ts {
			v := 0.0
			if t.Throttling {
				v = 1
			}
			p.sample("tenant_throttling", fmt.Sprintf("tenant=%q", t.Tenant), v)
		}
	}

	// Derived ratios (the paper's headline figures).
	p.gauge("write_amplification", "Storage bytes written per user byte ingested.", eng.WriteAmplification())
	p.gauge("read_amplification", "Average sorted runs probed per point lookup.", eng.ReadAmplification())
	p.gauge("filter_effectiveness", "Fraction of filter probes that skipped a run.", eng.FilterEffectiveness())
	p.gauge("cache_hit_rate", "Fraction of block-cache lookups that hit.", eng.CacheHitRate())
	p.gauge("avg_commit_group_size", "Mean batches coalesced per commit group.", eng.AvgCommitGroupSize())
	p.gauge("space_amplification", "Disk bytes per unique live byte.", s.db.SpaceAmplification())

	// Tree shape, one row per level.
	ts := s.db.TreeStats()
	p.gauge("memtable_entries", "Live memtable entries.", float64(ts.MemtableLen))
	p.gauge("immutable_memtables", "Immutable memtables awaiting flush.", float64(ts.Immutables))
	p.gaugeVec("level_runs", "Sorted runs per level.")
	for _, l := range ts.Levels {
		p.sample("level_runs", fmt.Sprintf("level=%q", fmt.Sprint(l.Level)), float64(l.Runs))
	}
	p.gaugeVec("level_files", "Files per level.")
	for _, l := range ts.Levels {
		p.sample("level_files", fmt.Sprintf("level=%q", fmt.Sprint(l.Level)), float64(l.Files))
	}
	p.gaugeVec("level_bytes", "Bytes per level.")
	for _, l := range ts.Levels {
		p.sample("level_bytes", fmt.Sprintf("level=%q", fmt.Sprint(l.Level)), float64(l.Bytes))
	}
	p.gauge("total_bytes", "Total bytes across all levels.", float64(ts.TotalBytes))

	// Per-shard breakdown, when the engine is the partitioned store:
	// the figures an operator needs to spot hot-shard skew.
	if se, ok := s.db.(interface{ ShardTreeStats() []core.TreeStats }); ok {
		shards := se.ShardTreeStats()
		p.gauge("shards", "Shard count of the partitioned store.", float64(len(shards)))
		p.gaugeVec("shard_memtable_bytes", "Memtable footprint per shard.")
		for i, st := range shards {
			p.sample("shard_memtable_bytes", fmt.Sprintf("shard=%q", fmt.Sprint(i)), float64(st.MemtableBytes))
		}
		p.gaugeVec("shard_l0_runs", "Level-0 sorted runs per shard.")
		for i, st := range shards {
			p.sample("shard_l0_runs", fmt.Sprintf("shard=%q", fmt.Sprint(i)), float64(st.L0Runs))
		}
		p.gaugeVec("shard_backlog_bytes", "Compaction debt per shard.")
		for i, st := range shards {
			p.sample("shard_backlog_bytes", fmt.Sprintf("shard=%q", fmt.Sprint(i)), float64(st.BacklogBytes))
		}
		p.gaugeVec("shard_total_bytes", "Bytes across all levels per shard.")
		for i, st := range shards {
			p.sample("shard_total_bytes", fmt.Sprintf("shard=%q", fmt.Sprint(i)), float64(st.TotalBytes))
		}
	}

	// Live workload characterization and per-level RUM attribution from
	// the engine profiler. Windowed figures decay with the profile
	// half-life, so they are gauges, not counters.
	if wp := s.db.WorkloadProfile(); wp.Enabled {
		p.gauge("workload_window_ops", "Sampling-weighted operations in the profile window.", float64(wp.WindowOps))
		p.gauge("workload_rotations", "Profile half-lives elapsed since open.", float64(wp.Rotations))
		p.gaugeVec("workload_ops", "Operations in the profile window by kind.")
		for _, kv := range []struct {
			op string
			v  int64
		}{{"get", wp.Gets}, {"put", wp.Puts}, {"delete", wp.Deletes}, {"scan", wp.Scans}} {
			p.sample("workload_ops", fmt.Sprintf("op=%q", kv.op), float64(kv.v))
		}
		p.gauge("workload_mean_scan_len", "Mean entries returned per range scan in the window.", wp.MeanScanLen)
		p.gauge("workload_distinct_keys", "Estimated distinct keys touched in the window.", float64(wp.DistinctKeys))
		p.gauge("workload_zipf_s", "Fitted zipf exponent of the window's key popularity (0 = uniform).", wp.ZipfS)
		p.gauge("workload_top_share", "Share of window traffic on the tracked hot keys.", wp.TopShare)
		p.gauge("workload_read_amp", "Measured runs probed per lookup over the window.", wp.ReadAmp)
		p.gauge("workload_write_amp", "Measured storage-write bytes per ingested byte over the window.", wp.WriteAmp)
		p.gauge("workload_space_amp", "Measured tree bytes per deepest-level byte.", wp.SpaceAmp)
		if len(wp.Tenants) > 0 {
			p.gaugeVec("workload_tenant_ops", "Sampled operations per tenant in the profile window.")
			for _, tw := range wp.Tenants {
				p.sample("workload_tenant_ops", fmt.Sprintf("tenant=%q", tw.Tenant), float64(tw.Ops))
			}
		}
		p.gaugeVec("level_runs_probed_window", "Runs consulted by lookups per level over the window.")
		for _, lp := range wp.Levels {
			p.sample("level_runs_probed_window", fmt.Sprintf("level=%q", fmt.Sprint(lp.Level)), float64(lp.RunsProbed))
		}
		p.gaugeVec("level_read_amp", "Per-level contribution to read amplification over the window.")
		for _, lp := range wp.Levels {
			p.sample("level_read_amp", fmt.Sprintf("level=%q", fmt.Sprint(lp.Level)), lp.ReadAmp)
		}
		p.gaugeVec("level_bytes_read_window", "Uncached data-block bytes read per level over the window.")
		for _, lp := range wp.Levels {
			p.sample("level_bytes_read_window", fmt.Sprintf("level=%q", fmt.Sprint(lp.Level)), float64(lp.BytesRead))
		}
		p.gaugeVec("level_bytes_written_window", "Bytes written into each level over the window, by trigger.")
		for _, lp := range wp.Levels {
			for reason, v := range lp.WriteByReason {
				p.sample("level_bytes_written_window",
					fmt.Sprintf("level=%q,reason=%q", fmt.Sprint(lp.Level), reason), float64(v))
			}
		}
		p.gaugeVec("level_compaction_bytes_in_window", "Bytes read as compaction input per level over the window.")
		for _, lp := range wp.Levels {
			p.sample("level_compaction_bytes_in_window", fmt.Sprintf("level=%q", fmt.Sprint(lp.Level)), float64(lp.CompactionBytesIn))
		}
	}

	// Latency summaries (engine histograms + the server's request
	// histogram merged, same as the STATS verb).
	lat := s.Latencies()
	p.summary("get_latency_ns", "DB.Get end-to-end latency, ns.", lat.Get)
	p.summary("put_latency_ns", "DB.Apply latency, ns.", lat.Put)
	p.summary("scan_next_latency_ns", "Iterator.Next latency, ns.", lat.ScanNext)
	p.summary("flush_latency_ns", "Memtable flush duration, ns.", lat.Flush)
	p.summary("compaction_latency_ns", "Compaction job duration, ns.", lat.Compaction)
	p.summary("request_latency_ns", "Network request latency, ns.", lat.Request)

	// Tracer throughput, when one is attached.
	if tr := s.db.Tracer(); tr != nil {
		p.counter("trace_spans_started_total", "Spans begun by the tracer.", int64(tr.Started()))
		p.counter("trace_spans_retained_total", "Spans retained into the ring.", int64(tr.Retained()))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, p.b.String())
}

// writeWorkload serves the live workload profile as JSON — the same
// payload the WORKLOAD wire verb returns, curl-able on the debug port.
func (s *Server) writeWorkload(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.db.WorkloadProfile())
}

// writeHealth serves the engine health as JSON: HTTP 200 while
// healthy, 503 once degraded, so it plugs into load-balancer and
// orchestrator probes unchanged.
func (s *Server) writeHealth(w http.ResponseWriter) {
	h := s.db.Health()
	w.Header().Set("Content-Type", "application/json")
	if h.Degraded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct {
		Degraded bool   `json:"degraded"`
		Op       string `json:"op,omitempty"`
		Kind     string `json:"kind,omitempty"`
		Cause    string `json:"cause,omitempty"`
		SinceNs  int64  `json:"since_ns,omitempty"`
		BgErr    string `json:"bg_err,omitempty"`
		BgErrOp  string `json:"bg_err_op,omitempty"`
	}{h.Degraded, h.Op, h.Kind, h.Cause, h.SinceNs, h.BgErr, h.BgErrOp})
}

// eventJSON is the wire shape of one ring event: the typed fields a
// program wants plus the human-readable line lsmctl already prints.
type eventJSON struct {
	Type   string `json:"type"`
	TimeNs int64  `json:"time_ns"`
	JobID  uint64 `json:"job_id,omitempty"`
	Err    string `json:"err,omitempty"`
	Line   string `json:"line"`
}

// writeEvents dumps the event ring, oldest first.
func writeEvents(w http.ResponseWriter, ring *events.Ring) {
	var evs []events.Event
	var total uint64
	if ring != nil {
		evs = ring.Events()
		total = ring.Total()
	}
	out := struct {
		Total  uint64      `json:"total"`
		Events []eventJSON `json:"events"`
	}{Total: total, Events: make([]eventJSON, 0, len(evs))}
	for _, e := range evs {
		ej := eventJSON{Type: e.Type.String(), TimeNs: e.TimeNs, JobID: e.JobID, Line: e.String()}
		if e.Err != nil {
			ej.Err = e.Err.Error()
		}
		out.Events = append(out.Events, ej)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// writeTraces dumps the captured span ring, oldest first.
func writeTraces(w http.ResponseWriter, tr *trace.Tracer) {
	out := struct {
		Started  uint64       `json:"started"`
		Retained uint64       `json:"retained"`
		Spans    []trace.Span `json:"spans"`
	}{Started: tr.Started(), Retained: tr.Retained(), Spans: tr.Spans()}
	if out.Spans == nil {
		out.Spans = []trace.Span{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
