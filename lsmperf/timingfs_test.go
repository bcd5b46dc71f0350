package main

import (
	"testing"

	"lsmlab/internal/core"
	"lsmlab/internal/vfs"
)

// exercise runs a small engine workload that writes a WAL, flushes,
// compacts, rewrites the manifest and reads tables back.
func exercise(t *testing.T, fs vfs.FS) {
	t.Helper()
	opts := core.DefaultOptions(fs, "/db")
	opts.BufferBytes = 64 << 10
	opts.CacheBytes = 64 << 10
	opts.SyncWAL = true
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	vals := newValues(1)
	key := make([]byte, keyLen)
	val := make([]byte, valueLen)
	for i := 0; i < 5000; i++ {
		putKey(key, uint64(i*7919%5000))
		vals.fill(val, key)
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i += 3 {
		putKey(key, uint64(i))
		v, err := db.Get(key)
		if err != nil || !vals.check(key, v) {
			t.Fatalf("get %s: %v", key, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTimingFSAgreesWithCountingFS(t *testing.T) {
	mem := vfs.NewMem()
	counting := vfs.NewCounting(mem)
	tfs := newTimingFS(counting)
	log := newSpanLog(1 << 20)
	tfs.attach(log)
	exercise(t, tfs)

	want := counting.Stats()
	got := tfs.stats()
	var readBytes, writeBytes, reads, writes, spans int64
	for c := range got {
		readBytes += got[c][ioRead].bytes
		writeBytes += got[c][ioWrite].bytes
		reads += got[c][ioRead].calls
		writes += got[c][ioWrite].calls
		for k := range got[c] {
			spans += got[c][k].calls
		}
	}
	if readBytes != want.BytesRead || writeBytes != want.BytesWritten {
		t.Errorf("bytes read/written = %d/%d, CountingFS says %d/%d", readBytes, writeBytes, want.BytesRead, want.BytesWritten)
	}
	if reads != want.ReadOps || writes != want.WriteOps {
		t.Errorf("read/write calls = %d/%d, CountingFS says %d/%d", reads, writes, want.ReadOps, want.WriteOps)
	}
	if n := int64(len(log.kept())) + log.dropped.Load(); n != spans {
		t.Errorf("span log holds %d spans for %d calls", n, spans)
	}
	if got[classWAL][ioSync].calls == 0 || got[classSST][ioWrite].bytes == 0 || got[classManifest][ioWrite].bytes == 0 {
		t.Errorf("a class saw no traffic: %+v", got)
	}
}

func TestEveryEngineFileIsClassified(t *testing.T) {
	mem := vfs.NewMem()
	tfs := newTimingFS(mem)
	exercise(t, tfs)

	s := tfs.stats()
	for k := range s[classOther] {
		if c := s[classOther][k]; c.calls != 0 || c.bytes != 0 {
			t.Errorf("%d %s calls (%d bytes) on unclassified files", c.calls, ioKindNames[k], c.bytes)
		}
	}
	names, err := mem.List("/db")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("the engine left no files")
	}
	for _, n := range names {
		if classOf(n) == classOther {
			t.Errorf("file %s has no class", n)
		}
	}
}
