package core

import (
	"fmt"
	"testing"

	"lsmlab/internal/vfs"
)

// hotDB builds the two steady-state hit shapes the get fast path must
// serve without allocating: keys resident in the memtable, and keys in
// an L0 table whose blocks are warm in the block cache. Tracing and
// latency recording are off, as in a default production open.
func hotDB(tb testing.TB) (db *DB, memKey, sstKey []byte) {
	tb.Helper()
	opts := DefaultOptions(vfs.NewMem(), "db")
	var err error
	db, err = Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })

	val := make([]byte, 100)
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("sst%06d", i)), val); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("mem%06d", i)), val); err != nil {
			tb.Fatal(err)
		}
	}

	memKey = []byte("mem000100")
	sstKey = []byte("sst001000")
	// Warm the block cache, the scratch pool, and the workload profiler
	// so the measured phase starts in steady state: the profiler samples
	// 1-in-32 gets, and a hot key's first sampled observation inserts it
	// into the bounded top-K/tenant tables (a one-time allocation). 128
	// warm gets make several sampled observations per key overwhelmingly
	// likely (and AllocsPerRun truncates, so a rare straggler admission
	// cannot fail the zero-alloc gate anyway).
	for i := 0; i < 128; i++ {
		if _, err := db.Get(memKey); err != nil {
			tb.Fatal(err)
		}
		if _, err := db.Get(sstKey); err != nil {
			tb.Fatal(err)
		}
	}
	return db, memKey, sstKey
}

// TestGetHotZeroAllocs pins the zero-allocation invariant of the get
// hot path: a memtable hit and a warm-cache SST hit must not touch the
// heap. A regression here shows up as GC pressure under read load long
// before it shows up in a latency percentile, so it is gated exactly.
func TestGetHotZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	db, memKey, sstKey := hotDB(t)

	if n := testing.AllocsPerRun(500, func() {
		if _, err := db.Get(memKey); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("memtable-hit Get allocates %.1f allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(500, func() {
		if _, err := db.Get(sstKey); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm SST-hit Get allocates %.1f allocs/op, want 0", n)
	}

	absent := []byte("zzz-absent")
	if n := testing.AllocsPerRun(500, func() {
		if _, err := db.Get(absent); err != ErrNotFound {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("not-found Get allocates %.1f allocs/op, want 0", n)
	}
}

func BenchmarkGetHot(b *testing.B) {
	db, memKey, sstKey := hotDB(b)

	b.Run("memtable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Get(memKey); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sst-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Get(sstKey); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("not-found", func(b *testing.B) {
		key := []byte("zzz-absent")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Get(key); err != ErrNotFound {
				b.Fatal(err)
			}
		}
	})
	// Concurrent readers alternating the two hit shapes: what the read
	// path's shared state (read-state pin, table cache) costs when
	// several goroutines get at once.
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				key := memKey
				if i&1 == 1 {
					key = sstKey
				}
				if _, err := db.Get(key); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
