package core

import (
	"fmt"
	"math"
	"os"
	"testing"

	"lsmlab/internal/sketch"
	"lsmlab/internal/vfs"
)

// profileDB opens a store with a small profile window so rotations and
// sketch decay happen within test-sized workloads.
func profileDB(t *testing.T, windowOps int) *DB {
	t.Helper()
	opts := DefaultOptions(vfs.NewMem(), "db")
	opts.ProfileWindowOps = windowOps
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestWorkloadProfileBasic(t *testing.T) {
	db := profileDB(t, 1<<14)

	val := make([]byte, 64)
	const n = 4000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("acme/user%05d", i%1000))
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// A skewed read phase: one hot key takes half the traffic.
	hot := []byte("acme/user00042")
	for i := 0; i < n; i++ {
		key := hot
		if i%2 == 1 {
			key = []byte(fmt.Sprintf("acme/user%05d", i%1000))
		}
		if _, err := db.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Scan([]byte("acme/user00000"), []byte("acme/user00100"), 0); err != nil {
		t.Fatal(err)
	}

	wp := db.WorkloadProfile()
	if !wp.Enabled {
		t.Fatal("profiler should be enabled by default")
	}
	if wp.Gets == 0 || wp.Puts == 0 || wp.Scans == 0 {
		t.Fatalf("op mix not populated: gets=%d puts=%d scans=%d", wp.Gets, wp.Puts, wp.Scans)
	}
	if wp.ScanEntries == 0 || wp.MeanScanLen <= 0 {
		t.Fatalf("scan shape not populated: entries=%d mean=%f", wp.ScanEntries, wp.MeanScanLen)
	}
	if wp.DistinctKeys == 0 {
		t.Fatal("distinct-key estimate is zero")
	}
	if len(wp.TopKeys) == 0 {
		t.Fatal("no top keys reported")
	}
	if wp.TopKeys[0].Key != string(hot) {
		t.Errorf("hottest key = %q, want %q", wp.TopKeys[0].Key, hot)
	}
	if wp.TopShare <= 0 || wp.TopShare > 1.05 {
		t.Errorf("top share %f out of range", wp.TopShare)
	}
	// The tenant table must attribute the traffic to the "acme" prefix.
	if len(wp.Tenants) == 0 {
		t.Fatal("no tenant rows")
	}
	if wp.Tenants[0].Tenant != "acme" {
		t.Errorf("dominant tenant = %q, want acme", wp.Tenants[0].Tenant)
	}
	if wp.Tenants[0].Gets == 0 || wp.Tenants[0].Puts == 0 {
		t.Errorf("tenant mix not split by op: %+v", wp.Tenants[0])
	}
	// Flushes attribute to level 0 under reason "flush".
	if len(wp.Levels) == 0 {
		t.Fatal("no level attribution")
	}
	if wp.Levels[0].BytesWritten == 0 || wp.Levels[0].WriteByReason["flush"] == 0 {
		t.Errorf("flush bytes not attributed to L0: %+v", wp.Levels[0])
	}
	// The reads above probed L0; sampled attribution must have seen some.
	if wp.Levels[0].RunsProbed == 0 {
		t.Errorf("no sampled runs probed at L0")
	}
	if wp.ReadAmp <= 0 {
		t.Errorf("read amp = %f, want > 0", wp.ReadAmp)
	}
	if wp.WriteAmp <= 0 {
		t.Errorf("write amp = %f, want > 0", wp.WriteAmp)
	}
	if wp.SpaceAmp < 1 {
		t.Errorf("space amp = %f, want >= 1", wp.SpaceAmp)
	}
}

func TestWorkloadProfileDisabled(t *testing.T) {
	opts := DefaultOptions(vfs.NewMem(), "db")
	opts.DisableProfiler = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if wp := db.WorkloadProfile(); wp.Enabled {
		t.Fatal("profile should report disabled")
	}
}

// TestTenantTableCap is the cardinality-bound regression: 10k distinct
// tenant prefixes must hold the profiler's tenant table at its cap,
// with the overflow folded into the "other" bucket.
func TestTenantTableCap(t *testing.T) {
	tt := newTenantTable(profMaxTenants)
	for i := 0; i < 10000; i++ {
		key := []byte(fmt.Sprintf("tenant%05d/key", i))
		tt.observe(key, profGet, 1)
	}
	tt.mu.Lock()
	size := len(tt.m)
	tt.mu.Unlock()
	if size > profMaxTenants {
		t.Fatalf("tenant table grew to %d rows, cap is %d", size, profMaxTenants)
	}
	rows := tt.rows()
	if len(rows) > profMaxTenants+1 {
		t.Fatalf("%d tenant rows reported, cap is %d + other", len(rows), profMaxTenants)
	}
	last := rows[len(rows)-1]
	if last.Tenant != "other" || last.Ops == 0 {
		t.Fatalf("evicted tenants not folded into other bucket: %+v", last)
	}
	// A persistently busy tenant stays tracked through further churn.
	busy := []byte("busy/key")
	for i := 0; i < 1000; i++ {
		tt.observe(busy, profPut, 1)
	}
	for i := 0; i < 5000; i++ {
		tt.observe([]byte(fmt.Sprintf("churn%05d/key", i)), profGet, 1)
	}
	found := false
	for _, r := range tt.rows() {
		if r.Tenant == "busy" {
			found = true
			if r.Puts == 0 {
				t.Errorf("busy tenant lost its put counts: %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("high-traffic tenant evicted by one-shot churn")
	}
}

func TestTenantTableDecay(t *testing.T) {
	tt := newTenantTable(8)
	tt.observe([]byte("a/k"), profGet, 4)
	tt.halve()
	tt.halve()
	tt.halve()
	if rows := tt.rows(); len(rows) != 0 {
		t.Fatalf("fully decayed tenant still reported: %+v", rows)
	}
}

func TestMergeProfiles(t *testing.T) {
	a := WorkloadProfile{
		Enabled: true, WindowOps: 100, Rotations: 2,
		Gets: 80, Puts: 20, Scans: 4, ScanEntries: 40,
		IngestedBytes: 1000, DistinctKeys: 50,
		TopKeys: []sketch.HotKey{{Key: "x", Count: 30}, {Key: "y", Count: 10}},
		Tenants: []TenantWorkload{{Tenant: "t1", Gets: 80, Ops: 100}},
		Levels: []LevelProfile{{
			Level: 0, RunsProbed: 160, BytesWritten: 2000,
			WriteByReason: map[string]int64{"flush": 2000},
		}},
		RunsProbed: 160, FlushCompactionBytes: 2000,
		SpaceBytesTotal: 3000, SpaceBytesDeepest: 2000,
	}
	b := WorkloadProfile{
		Enabled: true, WindowOps: 100, Rotations: 3,
		Gets: 20, Puts: 80, Scans: 6, ScanEntries: 20,
		IngestedBytes: 3000, DistinctKeys: 70,
		TopKeys: []sketch.HotKey{{Key: "x", Count: 20}},
		Tenants: []TenantWorkload{{Tenant: "t1", Gets: 10, Ops: 40}, {Tenant: "t2", Ops: 60}},
		Levels: []LevelProfile{{
			Level: 0, RunsProbed: 40, BytesWritten: 6000,
			WriteByReason: map[string]int64{"flush": 4000, "run-count": 2000},
		}},
		RunsProbed: 40, FlushCompactionBytes: 6000,
		SpaceBytesTotal: 5000, SpaceBytesDeepest: 4000,
	}
	m := MergeProfiles([]WorkloadProfile{a, b, {}}) // disabled shard is skipped
	if !m.Enabled {
		t.Fatal("merge of enabled shards should be enabled")
	}
	if m.Gets != 100 || m.Puts != 100 || m.Scans != 10 {
		t.Fatalf("op sums wrong: %+v", m)
	}
	if m.MeanScanLen != 6 {
		t.Errorf("mean scan len = %f, want 6", m.MeanScanLen)
	}
	if m.DistinctKeys != 120 {
		t.Errorf("distinct keys = %d, want 120 (disjoint shard sum)", m.DistinctKeys)
	}
	if m.Rotations != 3 {
		t.Errorf("rotations = %d, want max 3", m.Rotations)
	}
	if len(m.TopKeys) == 0 || m.TopKeys[0].Key != "x" || m.TopKeys[0].Count != 50 {
		t.Fatalf("top keys not merged by count: %+v", m.TopKeys)
	}
	var t1 *TenantWorkload
	for i := range m.Tenants {
		if m.Tenants[i].Tenant == "t1" {
			t1 = &m.Tenants[i]
		}
	}
	if t1 == nil || t1.Gets != 90 || t1.Ops != 140 {
		t.Fatalf("tenant t1 not merged: %+v", m.Tenants)
	}
	if len(m.Levels) != 1 || m.Levels[0].RunsProbed != 200 {
		t.Fatalf("levels not merged: %+v", m.Levels)
	}
	if m.Levels[0].WriteByReason["flush"] != 6000 || m.Levels[0].WriteByReason["run-count"] != 2000 {
		t.Fatalf("write reasons not merged: %+v", m.Levels[0].WriteByReason)
	}
	if got, want := m.ReadAmp, 200.0/100.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("read amp = %f, want %f", got, want)
	}
	if got, want := m.WriteAmp, 8000.0/4000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("write amp = %f, want %f", got, want)
	}
	if got, want := m.SpaceAmp, 8000.0/6000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("space amp = %f, want %f", got, want)
	}
}

func TestFitZipf(t *testing.T) {
	uniform := []sketch.HotKey{{Key: "a", Count: 100}, {Key: "b", Count: 100}, {Key: "c", Count: 100}, {Key: "d", Count: 100}}
	if s := fitZipf(uniform); s > 0.05 {
		t.Errorf("uniform counts fit s=%f, want ~0", s)
	}
	zipf := make([]sketch.HotKey, 8)
	for i := range zipf {
		zipf[i] = sketch.HotKey{Key: fmt.Sprintf("k%d", i), Count: uint64(100000 / (i + 1))}
	}
	if s := fitZipf(zipf); s < 0.8 || s > 1.2 {
		t.Errorf("1/rank counts fit s=%f, want ~1", s)
	}
	if s := fitZipf(zipf[:2]); s != 0 {
		t.Errorf("two ranks fit s=%f, want 0 (insufficient)", s)
	}
}

// TestProfilerOverheadGuard is the bench-smoke gate: with the profiler
// enabled (the default), hot-get latency must stay within 3% of a
// profiler-disabled open, and the hot path must stay allocation-free.
// Wall-clock measurement, so it is opt-in via PROFILER_GUARD=1.
func TestProfilerOverheadGuard(t *testing.T) {
	if os.Getenv("PROFILER_GUARD") == "" {
		t.Skip("set PROFILER_GUARD=1 to run the wall-clock overhead gate")
	}
	build := func(disable bool) (*DB, []byte) {
		opts := DefaultOptions(vfs.NewMem(), "db")
		opts.DisableProfiler = disable
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		val := make([]byte, 100)
		for i := 0; i < 2000; i++ {
			if err := db.Put([]byte(fmt.Sprintf("sst%06d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		key := []byte("sst001000")
		for i := 0; i < 64; i++ {
			if _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
		}
		return db, key
	}
	// Best-of-N with the on/off reps interleaved: the minimum is the
	// standard robust estimator for "how fast can this go", and
	// alternating the two configurations exposes both to the same
	// machine drift, so the 3% bound compares like with like.
	run := func(db *DB, key []byte) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if _, err := db.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	dbOn, keyOn := build(false)
	dbOff, keyOff := build(true)
	on, off := math.MaxFloat64, math.MaxFloat64
	var allocs int64
	for i := 0; i < 7; i++ {
		rOn := run(dbOn, keyOn)
		rOff := run(dbOff, keyOff)
		if v := float64(rOn.NsPerOp()); v < on {
			on = v
		}
		if v := float64(rOff.NsPerOp()); v < off {
			off = v
		}
		allocs = rOn.AllocsPerOp()
	}
	t.Logf("hot get: profiler on %.1f ns/op, off %.1f ns/op (%.2f%% overhead)",
		on, off, 100*(on-off)/off)
	if allocs != 0 {
		t.Errorf("profiled hot get allocates %d allocs/op, want 0", allocs)
	}
	if on > off*1.03 {
		t.Errorf("profiler overhead %.2f%% exceeds the 3%% budget (on=%.1fns off=%.1fns)",
			100*(on-off)/off, on, off)
	}
}
