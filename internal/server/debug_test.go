package server_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/metrics"
	"lsmlab/internal/partition"
	"lsmlab/internal/server"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
	"lsmlab/internal/wire"
)

// touchServer makes one round-trip so the accept loop is provably
// running before the test's cleanup drains it, then waits for the
// connection's teardown so gauges read zero again.
func touchServer(t *testing.T, srv *server.Server, addr string) {
	t.Helper()
	nc := rawConn(t, addr)
	if _, err := nc.Write(wire.AppendFrame(nil, wire.OpPing, nil)); err != nil {
		t.Fatal(err)
	}
	if status, _, err := readResp(t, nc); err != nil || status != wire.StatusOK {
		t.Fatalf("ping: status=%#x err=%v", status, err)
	}
	nc.Close()
	waitFor(t, "connection teardown", func() bool { return srv.ConnCount() == 0 })
}

// TestDebugMetricsParsesAsPrometheusText exercises /metrics after real
// engine activity and checks the payload both contains the families
// the dashboards scrape and parses line-by-line as exposition text.
func TestDebugMetricsParsesAsPrometheusText(t *testing.T) {
	srv, db, addr := testServer(t, func(o *core.Options) { o.RecordLatencies = true }, nil)
	touchServer(t, srv, addr)
	for i := 0; i < 20; i++ {
		k := []byte("m-" + strconv.Itoa(i))
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("m-3")); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.DebugHandler(nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"lsmlab_puts_total 20",
		"lsmlab_gets_total 1",
		"lsmlab_flushes_total 1",
		"lsmlab_degraded 0",
		`lsmlab_level_runs{level="0"} 1`,
		`lsmlab_get_latency_ns{quantile="0.99"}`,
		"lsmlab_get_latency_ns_count 1",
		"lsmlab_write_amplification",
		"lsmlab_conns_open 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
	// Every line is a comment or "name[{labels}] <float>", and every
	// sample's metric name carries the lsmlab_ prefix.
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("bad labels in %q", line)
			}
			name = name[:i]
		}
		if !strings.HasPrefix(name, "lsmlab_") {
			t.Fatalf("unprefixed metric %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
	}
	// Every declared counter is exposed exactly once, with its kind.
	metrics.Snapshot{}.Each(func(f metrics.Field, _ int64) {
		kind := "counter"
		if f.Gauge {
			kind = "gauge"
		}
		if n := strings.Count(body, "# TYPE lsmlab_"+f.Name+" "); n != 1 {
			t.Errorf("%s has %d TYPE lines, want 1", f.Name, n)
		}
		if !strings.Contains(body, "# TYPE lsmlab_"+f.Name+" "+kind+"\n") {
			t.Errorf("%s is not typed %s", f.Name, kind)
		}
	})
}

// TestDebugShardedDegradedAgreesWithHealthz serves a 3-shard store with
// one shard degraded: /metrics must report the degraded gauge as 1 while
// /healthz answers 503, so a scraper and a probe see the same state.
func TestDebugShardedDegradedAgreesWithHealthz(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(), 1)
	opts := core.DefaultOptions(ffs, "pdb")
	opts.MaxBackgroundRetries = -1 // degrade on the first failure
	store, err := partition.Open(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	shard := store.Partition(1)
	for i := 0; i < 20; i++ {
		if err := shard.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ffs.AddRule(faultfs.Rule{
		Classes:   faultfs.ClassSST,
		Ops:       faultfs.OpWrite | faultfs.OpCreate,
		Countdown: 1,
		Sticky:    true,
	})
	if err := shard.Flush(); err == nil {
		t.Fatal("flush against a dead device must error")
	}
	waitFor(t, "shard 1 degraded", func() bool { return shard.Health().Degraded })

	h := server.New(store, server.Options{}).DebugHandler(nil, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "\nlsmlab_degraded 1\n") {
		t.Errorf("/metrics does not report the degraded shard:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Errorf("/healthz status %d with a degraded shard, want 503", rec.Code)
	}
}

// TestDebugHealthz checks the probe shape on a healthy engine.
func TestDebugHealthz(t *testing.T) {
	srv, _, addr := testServer(t, nil, nil)
	touchServer(t, srv, addr)
	rec := httptest.NewRecorder()
	srv.DebugHandler(nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var h struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Degraded {
		t.Fatal("healthy engine reported degraded")
	}
}

// TestDebugEventsAndTraces checks both JSON rings: a flush lands in
// /events, a traced get lands in /traces with its stages.
func TestDebugEventsAndTraces(t *testing.T) {
	ring := events.NewRing(64)
	tr := trace.New(trace.Options{SampleEvery: 1, RingSize: 64, Seed: 7})
	srv, db, addr := testServer(t, func(o *core.Options) {
		o.EventListener = ring
		o.Tracer = tr
	}, nil)
	touchServer(t, srv, addr)
	if err := db.Put([]byte("e"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("e")); err != nil {
		t.Fatal(err)
	}
	h := srv.DebugHandler(ring, tr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	var evs struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Type string `json:"type"`
			Line string `json:"line"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if evs.Total == 0 || len(evs.Events) == 0 {
		t.Fatalf("no events: %+v", evs)
	}
	found := false
	for _, e := range evs.Events {
		if e.Type == "flush-end" {
			found = true
		}
	}
	if !found {
		t.Fatalf("flush-end missing from /events: %+v", evs.Events)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	var trs struct {
		Started uint64 `json:"started"`
		Spans   []struct {
			TraceID string `json:"trace_id"`
			Op      string `json:"op"`
			Stages  []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trs); err != nil {
		t.Fatal(err)
	}
	if trs.Started == 0 || len(trs.Spans) == 0 {
		t.Fatalf("no spans: %+v", trs)
	}
	var get bool
	for _, sp := range trs.Spans {
		if sp.Op == "get" {
			get = true
			if len(sp.Stages) == 0 || sp.Stages[0].Name != "search" {
				t.Fatalf("get span missing search stage: %+v", sp)
			}
			if len(sp.TraceID) != 16 {
				t.Fatalf("trace id not 16 hex chars: %q", sp.TraceID)
			}
		}
	}
	if !get {
		t.Fatalf("no get span in /traces: %+v", trs.Spans)
	}
}

// TestDebugEmptyRings pins the nil-ring / nil-tracer behavior: empty
// JSON lists, not panics or nulls.
func TestDebugEmptyRings(t *testing.T) {
	srv, _, addr := testServer(t, nil, nil)
	touchServer(t, srv, addr)
	h := srv.DebugHandler(nil, nil)
	for _, path := range []string{"/events", "/traces"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if strings.Contains(rec.Body.String(), "null") {
			t.Fatalf("%s serves null: %s", path, rec.Body.String())
		}
	}
}

// TestDebugPprof checks the pprof mux is mounted: the index lists
// profiles and a named profile endpoint serves bytes.
func TestDebugPprof(t *testing.T) {
	srv, _, addr := testServer(t, nil, nil)
	touchServer(t, srv, addr)
	h := srv.DebugHandler(nil, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/goroutine", nil))
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("goroutine profile: status %d len %d", rec.Code, rec.Body.Len())
	}
}
