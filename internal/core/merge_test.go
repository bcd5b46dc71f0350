package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"lsmlab/internal/vfs"
	"sync"
	"testing"
)

// counterMerge is an associative int64-add operator.
type counterMerge struct{}

func (counterMerge) FullMerge(key, existing []byte, operands [][]byte) ([]byte, error) {
	var sum int64
	if len(existing) == 8 {
		sum = int64(binary.LittleEndian.Uint64(existing))
	} else if len(existing) != 0 {
		return nil, errors.New("bad existing value")
	}
	for _, op := range operands {
		if len(op) != 8 {
			return nil, errors.New("bad operand")
		}
		sum += int64(binary.LittleEndian.Uint64(op))
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(sum))
	return out, nil
}

func (counterMerge) PartialMerge(key, older, newer []byte) ([]byte, bool) {
	if len(older) != 8 || len(newer) != 8 {
		return nil, false
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out,
		binary.LittleEndian.Uint64(older)+binary.LittleEndian.Uint64(newer))
	return out, true
}

func delta(n int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(n))
	return b
}

func counterValue(t *testing.T, db *DB, key string) int64 {
	t.Helper()
	v, err := db.Get([]byte(key))
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	if len(v) != 8 {
		t.Fatalf("counter value %d bytes", len(v))
	}
	return int64(binary.LittleEndian.Uint64(v))
}

func mergeDB(t *testing.T, mutate func(*Options)) *DB {
	t.Helper()
	db, _ := testDB(t, func(o *Options) {
		o.MergeOperator = counterMerge{}
		if mutate != nil {
			mutate(o)
		}
	})
	return db
}

func TestMergeRequiresOperator(t *testing.T) {
	db, _ := testDB(t, nil)
	if err := db.Merge([]byte("k"), delta(1)); !errors.Is(err, ErrNoMergeOperator) {
		t.Fatalf("merge without operator: %v", err)
	}
}

func TestMergeInMemtable(t *testing.T) {
	db := mergeDB(t, nil)
	db.Merge([]byte("c"), delta(5))
	db.Merge([]byte("c"), delta(7))
	if got := counterValue(t, db, "c"); got != 12 {
		t.Fatalf("counter = %d", got)
	}
	// Merge over an existing base.
	db.Put([]byte("b"), delta(100))
	db.Merge([]byte("b"), delta(-30))
	if got := counterValue(t, db, "b"); got != 70 {
		t.Fatalf("base+merge = %d", got)
	}
}

func TestMergeAcrossFlush(t *testing.T) {
	db := mergeDB(t, nil)
	db.Put([]byte("c"), delta(10))
	db.Flush()
	db.Merge([]byte("c"), delta(1))
	db.Flush()
	db.Merge([]byte("c"), delta(2))
	if got := counterValue(t, db, "c"); got != 13 {
		t.Fatalf("counter = %d", got)
	}
}

func TestMergeFoldedByCompaction(t *testing.T) {
	db := mergeDB(t, nil)
	for i := 0; i < 100; i++ {
		db.Merge([]byte("c"), delta(1))
		if i%10 == 0 {
			db.Flush()
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// After a full compaction the chain must be folded to one Set.
	e, err := db.getEntry([]byte("c"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind().String() != "SET" {
		t.Fatalf("post-compaction kind %v", e.Kind())
	}
	if got := counterValue(t, db, "c"); got != 100 {
		t.Fatalf("counter = %d", got)
	}
}

func TestMergeOverDelete(t *testing.T) {
	db := mergeDB(t, nil)
	db.Put([]byte("c"), delta(50))
	db.Delete([]byte("c"))
	db.Merge([]byte("c"), delta(3))
	if got := counterValue(t, db, "c"); got != 3 {
		t.Fatalf("merge over delete = %d", got)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, db, "c"); got != 3 {
		t.Fatalf("after compaction = %d", got)
	}
}

func TestMergeRespectsSnapshots(t *testing.T) {
	db := mergeDB(t, nil)
	db.Merge([]byte("c"), delta(1))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Merge([]byte("c"), delta(10))
	if got := counterValue(t, db, "c"); got != 11 {
		t.Fatalf("live = %d", got)
	}
	v, err := snap.Get([]byte("c"))
	if err != nil || int64(binary.LittleEndian.Uint64(v)) != 1 {
		t.Fatalf("snapshot = %v %v", v, err)
	}
	// Compaction must preserve the snapshot's view.
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	v, err = snap.Get([]byte("c"))
	if err != nil || int64(binary.LittleEndian.Uint64(v)) != 1 {
		t.Fatalf("snapshot after compaction = %v %v", v, err)
	}
	if got := counterValue(t, db, "c"); got != 11 {
		t.Fatalf("live after compaction = %d", got)
	}
}

func TestMergeVisibleInScans(t *testing.T) {
	db := mergeDB(t, nil)
	db.Put([]byte("a"), delta(1))
	db.Merge([]byte("b"), delta(2))
	db.Merge([]byte("b"), delta(3))
	db.Put([]byte("c"), delta(4))
	db.Flush()
	db.Merge([]byte("c"), delta(1))

	kvs, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 {
		t.Fatalf("scan %d keys", len(kvs))
	}
	want := map[string]int64{"a": 1, "b": 5, "c": 5}
	for _, kvp := range kvs {
		if got := int64(binary.LittleEndian.Uint64(kvp.Value)); got != want[string(kvp.Key)] {
			t.Errorf("scan %s = %d, want %d", kvp.Key, got, want[string(kvp.Key)])
		}
	}
}

func TestMergeIteratorMidStream(t *testing.T) {
	// Keys around the merged key iterate correctly after resolution.
	db := mergeDB(t, nil)
	db.Put([]byte("a"), delta(1))
	db.Merge([]byte("m"), delta(2)) // no base: resolves against nil
	db.Put([]byte("z"), delta(3))
	it, err := db.NewIterator(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var keys []string
	for ok := it.First(); ok; ok = it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if fmt.Sprint(keys) != fmt.Sprint([]string{"a", "m", "z"}) {
		t.Fatalf("keys %v", keys)
	}
}

func TestMergeManyKeysRandomized(t *testing.T) {
	db := mergeDB(t, nil)
	model := map[string]int64{}
	present := map[string]bool{}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("cnt-%02d", i%40)
		switch i % 17 {
		case 3:
			db.Put([]byte(k), delta(int64(i)))
			model[k] = int64(i)
			present[k] = true
		case 7:
			db.Delete([]byte(k))
			model[k] = 0 // a later merge restarts from nil
			present[k] = false
		default:
			db.Merge([]byte(k), delta(1))
			model[k]++
			present[k] = true
		}
	}
	db.Flush()
	db.WaitIdle()
	check := func(phase string) {
		t.Helper()
		for k, want := range model {
			if !present[k] {
				if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s: deleted %s: %v", phase, k, err)
				}
				continue
			}
			if got := counterValue(t, db, k); got != want {
				t.Fatalf("%s: %s = %d, want %d", phase, k, got, want)
			}
		}
	}
	check("pre-compaction")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("post-compaction")
}

func TestMergeRecovery(t *testing.T) {
	fs := mergeDBOpts(t)
	db, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("c"), delta(5))
	db.Merge([]byte("c"), delta(2))
	// Crash (no close); reopen and resolve from WAL-replayed state.
	db2, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := counterValue(t, db2, "c"); got != 7 {
		t.Fatalf("recovered counter = %d", got)
	}
}

// mergeDBOpts builds reusable options over a shared MemFS for recovery
// tests.
func mergeDBOpts(t *testing.T) Options {
	t.Helper()
	opts := DefaultOptions(vfs.NewMem(), "db")
	opts.MergeOperator = counterMerge{}
	return opts
}

// TestMergeGetUnderCompaction reads merge counters, whose gets take the
// operand-folding slow path, while flushes and full compactions replace
// the tables under them. Every get must see the tables of the state it
// pinned: a missing-file error here means a compaction deleted a table
// an in-flight read still listed.
func TestMergeGetUnderCompaction(t *testing.T) {
	db := mergeDB(t, func(o *Options) { o.Workers = 2 })
	const keys, rounds = 64, 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("ctr%02d", i)) }
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var mu sync.Mutex
	var failures int
	var firstErr error
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := r; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Get(key(n % keys)); err != nil && !errors.Is(err, ErrNotFound) {
					mu.Lock()
					if failures++; firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(r)
	}
	pad := make([]byte, 200)
	for round := 1; round <= rounds; round++ {
		for i := 0; i < keys; i++ {
			if err := db.Merge(key(i), delta(1)); err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte(fmt.Sprintf("pad%03d-%02d", round, i)), pad); err != nil {
				t.Fatal(err)
			}
		}
		if round%20 == 0 {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
	if failures > 0 {
		t.Fatalf("%d merge gets failed during compaction; first: %v", failures, firstErr)
	}
	for i := 0; i < keys; i++ {
		if got := counterValue(t, db, string(key(i))); got != rounds {
			t.Fatalf("%s = %d, want %d", key(i), got, rounds)
		}
	}
}
