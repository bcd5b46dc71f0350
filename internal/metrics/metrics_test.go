package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestSnapshotAndDerived(t *testing.T) {
	var m Metrics
	m.BytesIngested.Store(100)
	m.FlushBytes.Store(100)
	m.CompactionBytesWritten.Store(300)
	m.Gets.Store(10)
	m.RunsProbed.Store(25)
	m.FilterProbes.Store(100)
	m.FilterNegatives.Store(90)
	m.CacheHits.Store(3)
	m.CacheMisses.Store(1)

	s := m.Snapshot()
	if got := s.WriteAmplification(); got != 4.0 {
		t.Errorf("WA = %v", got)
	}
	if got := s.ReadAmplification(); got != 2.5 {
		t.Errorf("RA = %v", got)
	}
	if got := s.FilterEffectiveness(); got != 0.9 {
		t.Errorf("filter eff = %v", got)
	}
	if got := s.CacheHitRate(); got != 0.75 {
		t.Errorf("hit rate = %v", got)
	}
}

func TestDerivedZeroDenominators(t *testing.T) {
	var s Snapshot
	if s.WriteAmplification() != 0 || s.ReadAmplification() != 0 ||
		s.FilterEffectiveness() != 0 || s.CacheHitRate() != 0 ||
		s.AvgCommitGroupSize() != 0 {
		t.Error("zero denominators must yield 0, not NaN")
	}
	// Numerator without denominator (possible mid-snapshot: the batch
	// counter is bumped before the group counter) still must not divide
	// by zero.
	s.CommitBatches = 7
	if got := s.AvgCommitGroupSize(); got != 0 {
		t.Errorf("AvgCommitGroupSize with 0 groups = %v, want 0", got)
	}
	s.FlushBytes, s.CompactionBytesWritten = 100, 300
	if got := s.WriteAmplification(); got != 0 {
		t.Errorf("WriteAmplification with 0 ingested = %v, want 0", got)
	}
	s.RunsProbed = 12
	if got := s.ReadAmplification(); got != 0 {
		t.Errorf("ReadAmplification with 0 gets = %v, want 0", got)
	}
}

func TestAvgCommitGroupSize(t *testing.T) {
	var m Metrics
	m.CommitGroups.Store(4)
	m.CommitBatches.Store(10)
	if got := m.Snapshot().AvgCommitGroupSize(); got != 2.5 {
		t.Errorf("AvgCommitGroupSize = %v, want 2.5", got)
	}
}

func TestSub(t *testing.T) {
	var m Metrics
	m.Puts.Store(10)
	before := m.Snapshot()
	m.Puts.Add(5)
	m.Flushes.Add(2)
	d := m.Snapshot().Sub(before)
	if d.Puts != 5 || d.Flushes != 2 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestSubEdgeCases(t *testing.T) {
	// An idle interval: every counter delta is zero, so every derived
	// ratio over the interval must come out 0, never NaN or Inf.
	var m Metrics
	m.Puts.Store(10)
	m.BytesIngested.Store(1000)
	m.FlushBytes.Store(500)
	m.Gets.Store(3)
	m.RunsProbed.Store(6)
	m.CommitGroups.Store(2)
	m.CommitBatches.Store(4)
	before := m.Snapshot()
	d := m.Snapshot().Sub(before)
	if d.Puts != 0 || d.BytesIngested != 0 {
		t.Fatalf("idle interval has nonzero deltas: %+v", d)
	}
	if d.WriteAmplification() != 0 || d.ReadAmplification() != 0 ||
		d.AvgCommitGroupSize() != 0 || d.CacheHitRate() != 0 {
		t.Error("idle-interval ratios must be 0")
	}

	// Sub of itself is all-zero except gauges.
	m.Degraded.Store(1)
	s := m.Snapshot()
	z := s.Sub(s)
	if z.Puts != 0 || z.CommitBatches != 0 || z.NetRequests != 0 {
		t.Errorf("self-Sub left counter residue: %+v", z)
	}
	// Degraded is a gauge: an interval reports the current state, not a
	// delta (which would always be 0 and hide the condition).
	if z.Degraded != 1 {
		t.Errorf("self-Sub Degraded = %d, want gauge semantics (1)", z.Degraded)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Puts.Add(1)
				m.BytesIngested.Add(10)
			}
		}()
	}
	wg.Wait()
	if m.Puts.Load() != 8000 || m.BytesIngested.Load() != 80000 {
		t.Errorf("lost updates: puts=%d bytes=%d", m.Puts.Load(), m.BytesIngested.Load())
	}
}

func TestString(t *testing.T) {
	var m Metrics
	m.Puts.Store(42)
	s := m.Snapshot().String()
	if !strings.Contains(s, "puts=42") {
		t.Errorf("String() = %q", s)
	}
}

func TestAddSumsCountersAndMaxesGauges(t *testing.T) {
	var a, b, c Metrics
	a.Puts.Store(3)
	b.Puts.Store(4)
	c.Puts.Store(5)
	a.NetRequests.Store(7)
	b.Degraded.Store(1)
	sum := a.Snapshot().Add(b.Snapshot()).Add(c.Snapshot())
	if sum.Puts != 12 || sum.NetRequests != 7 {
		t.Errorf("Add counters: puts=%d net_requests=%d, want 12 and 7", sum.Puts, sum.NetRequests)
	}
	// One degraded shard marks the sum degraded, wherever it sits in
	// the fold, and never counts past 1.
	if sum.Degraded != 1 {
		t.Errorf("Add Degraded = %d, want 1", sum.Degraded)
	}
	if d := b.Snapshot().Add(b.Snapshot()); d.Degraded != 1 {
		t.Errorf("Add of two degraded = %d, want 1", d.Degraded)
	}
	// Sub undoes Add on counters and keeps the gauge of its left side.
	back := sum.Sub(c.Snapshot())
	if back.Puts != 7 || back.Degraded != 1 {
		t.Errorf("Sub after Add: puts=%d degraded=%d, want 7 and 1", back.Puts, back.Degraded)
	}
}

func TestFieldsDeclaredOnce(t *testing.T) {
	names, helps := map[string]bool{}, map[string]bool{}
	var gauges []string
	for _, f := range fields {
		if f.Name == "" || f.Help == "" {
			t.Errorf("counter %+v lacks a name or help text", f)
		}
		if names[f.Name] || helps[f.Help] {
			t.Errorf("counter %q repeats a name or help text", f.Name)
		}
		names[f.Name], helps[f.Help] = true, true
		if f.Gauge {
			gauges = append(gauges, f.Name)
		}
	}
	if len(gauges) != 1 || gauges[0] != "degraded" {
		t.Errorf("gauges = %v, want [degraded]", gauges)
	}
}

func TestSnapshotArithmeticAllocFree(t *testing.T) {
	var m Metrics
	m.Puts.Store(1)
	base := m.Snapshot()
	var sink Snapshot
	if n := testing.AllocsPerRun(100, func() {
		sink = m.Snapshot().Sub(base).Add(base)
	}); n != 0 {
		t.Errorf("Snapshot+Sub+Add allocate %v times per call, want 0", n)
	}
	if sink.Puts != 1 {
		t.Errorf("puts = %d", sink.Puts)
	}
}
