package partition

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lsmlab/internal/core"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// openWithDegradedShard opens a 3-shard store and drives shard 1 into
// read-only degraded mode: table writes die under a sticky fault and
// that shard's flush fails. The other shards hold no data, so they
// never write a table and stay healthy.
func openWithDegradedShard(t *testing.T) *Store {
	t.Helper()
	ffs := faultfs.New(vfs.NewMem(), 1)
	opts := core.DefaultOptions(ffs, "pdb")
	opts.MaxBackgroundRetries = -1 // degrade on the first failure
	s, err := Open(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	shard := s.Partition(1)
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
	deadline := time.Now().Add(5 * time.Second)
	for !shard.Health().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("shard 1 never degraded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return s
}

// TestDegradedShardMarksStoreDegraded pins that the summed counters
// carry the Degraded gauge of any degraded shard, in agreement with
// Health and the STATS block.
func TestDegradedShardMarksStoreDegraded(t *testing.T) {
	s := openWithDegradedShard(t)
	if got := s.Metrics().Degraded; got != 1 {
		t.Errorf("Metrics().Degraded = %d with shard 1 degraded, want 1", got)
	}
	if h := s.Health(); !h.Degraded || !strings.HasPrefix(h.Op, "shard-1/") {
		t.Errorf("Health = %+v, want degraded naming shard-1", h)
	}
	stats := s.FormatStats(false)
	if !strings.Contains(stats, "degraded=true op=shard-1/flush") ||
		!strings.Contains(stats, "shard 001:") || !strings.Contains(stats, "degraded=true\n  shard 002:") {
		t.Errorf("FormatStats misses the degraded shard:\n%s", stats)
	}
}

// TestShardedFormatStatsMatchesSingleTree pins that the sharded STATS
// block is the single tree's block plus the per-shard rows: verbose
// output carries the per-reason write bytes, the top keys and the
// commit-group line.
func TestShardedFormatStatsMatchesSingleTree(t *testing.T) {
	for _, n := range []int{1, 3} {
		s, _ := testStore(t, n)
		for i := 0; i < 2000; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%04d", i%500)), make([]byte, 32)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle()
		for i := 0; i < 2000; i++ {
			if _, err := s.Get([]byte("k0042")); err != nil {
				t.Fatal(err)
			}
		}
		stats := s.FormatStats(true)
		for _, want := range []string{"top keys: \"k0042\"", " flush=", "commit group size:", "shards=", "shard 000:"} {
			if !strings.Contains(stats, want) {
				t.Errorf("%d shards: FormatStats(true) misses %q:\n%s", n, want, stats)
			}
		}
	}
}
