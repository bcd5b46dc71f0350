package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
)

// requireNoTableLeak waits for background work to drain and checks that
// the .sst files on disk are exactly the tables of the live version:
// every dead table was removed and no live one was lost.
func requireNoTableLeak(t *testing.T, db *DB, fs vfs.FS) {
	t.Helper()
	db.WaitIdle()
	live := db.Version().LiveFileNums()
	names, err := fs.List(db.dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[uint64]bool{}
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		num, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
		if err != nil {
			t.Fatalf("unexpected table name %q", name)
		}
		onDisk[num] = true
		if !live[num] {
			t.Errorf("table %s is on disk but not live", name)
		}
	}
	for num := range live {
		if !onDisk[num] {
			t.Errorf("live table %s is missing from disk", manifest.FileName(num))
		}
	}
}

// TestIteratorPinsTablesAcrossCompactions holds an iterator open while
// compactions replace every table it reads. The iterator must still
// read its whole snapshot from those tables, which must stay on disk
// until it closes and be removed after.
func TestIteratorPinsTablesAcrossCompactions(t *testing.T) {
	db, fs := testDB(t, nil)
	const n = 400
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	put := func(round int) {
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), []byte(fmt.Sprintf("r%d-%04d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pinned := it.rs.version.LiveFileNums()
	if len(pinned) == 0 {
		t.Fatal("iterator reads no tables")
	}
	for round := 1; ; round++ {
		if round > 5 {
			t.Fatal("compactions never replaced the iterator's tables")
		}
		put(round)
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		live := db.Version().LiveFileNums()
		replaced := true
		for num := range pinned {
			replaced = replaced && !live[num]
		}
		if replaced {
			break
		}
	}
	for num := range pinned {
		if !fs.Exists(vfs.Join(db.dir, manifest.FileName(num))) {
			t.Fatalf("table %s of an open iterator was removed", manifest.FileName(num))
		}
	}

	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if want := fmt.Sprintf("r0-%04d", i); string(it.Key()) != string(key(i)) || string(it.Value()) != want {
			t.Fatalf("entry %d = %s=%s, want %s=%s", i, it.Key(), it.Value(), key(i), want)
		}
		i++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("iterator read %d keys, want %d", i, n)
	}
	requireNoTableLeak(t, db, fs)
}
