package main

import (
	"strings"
	"sync/atomic"
	"time"

	"lsmlab/internal/vfs"
)

// fileClass groups the engine's files by the layer that owns them.
type fileClass uint8

const (
	classWAL fileClass = iota
	classSST
	classManifest
	classOther // anything unrecognised; the tests require it stays empty
	numClasses
)

var classNames = [numClasses]string{"wal", "sst", "manifest", "other"}

func classOf(name string) fileClass {
	base := vfs.Base(name)
	switch {
	case strings.HasSuffix(base, ".wal"):
		return classWAL
	case strings.HasSuffix(base, ".sst"):
		return classSST
	case base == "MANIFEST" || base == "MANIFEST.tmp":
		return classManifest
	}
	return classOther
}

// ioKind is the file call a span or counter describes.
type ioKind uint8

const (
	ioRead ioKind = iota
	ioWrite
	ioSync
	numIOKinds
)

var ioKindNames = [numIOKinds]string{"read", "write", "sync"}

// ioCounter accumulates one (class, kind) cell. ns is filled only while
// timing is on.
type ioCounter struct {
	calls, bytes, ns atomic.Int64
}

// ioStats is a plain copy of every cell, for interval arithmetic.
type ioStats [numClasses][numIOKinds]struct{ calls, bytes, ns int64 }

func (s ioStats) sub(o ioStats) ioStats {
	for c := range s {
		for k := range s[c] {
			s[c][k].calls -= o[c][k].calls
			s[c][k].bytes -= o[c][k].bytes
			s[c][k].ns -= o[c][k].ns
		}
	}
	return s
}

// writtenBytes is every byte written through the FS, all classes.
func (s ioStats) writtenBytes() int64 {
	var n int64
	for c := range s {
		n += s[c][ioWrite].bytes
	}
	return n
}

// ioSpan is one timed file call. start is relative to the span log's
// origin so a span fits in 24 bytes.
type ioSpan struct {
	startNs int64
	durNs   int64
	bytes   int32
	class   fileClass
	kind    ioKind
}

// spanLog is a fixed-capacity, lock-free append log of file-call spans;
// spans past the capacity are counted but not kept.
type spanLog struct {
	origin  time.Time
	spans   []ioSpan
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]ioSpan, capacity)} }

func (l *spanLog) add(sp ioSpan) {
	i := l.next.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.dropped.Add(1)
		return
	}
	l.spans[i] = sp
}

func (l *spanLog) kept() []ioSpan {
	n := l.next.Load()
	if n > int64(len(l.spans)) {
		n = int64(len(l.spans))
	}
	return l.spans[:n]
}

// timingFS wraps the store's filesystem. It always counts calls and
// bytes per file class (a few atomic adds, so untraced runs can report
// write amplification); with a span log attached it also times every
// ReadAt, Write and Sync and records each as a span.
type timingFS struct {
	vfs.FS
	cells [numClasses][numIOKinds]ioCounter
	log   atomic.Pointer[spanLog] // nil: count only
}

func newTimingFS(fs vfs.FS) *timingFS { return &timingFS{FS: fs} }

// attach starts timing every call into log, with span times relative
// to now; a nil log stops timing.
func (t *timingFS) attach(log *spanLog) {
	if log != nil {
		log.origin = time.Now()
	}
	t.log.Store(log)
}

func (t *timingFS) stats() ioStats {
	var s ioStats
	for c := range t.cells {
		for k := range t.cells[c] {
			s[c][k].calls = t.cells[c][k].calls.Load()
			s[c][k].bytes = t.cells[c][k].bytes.Load()
			s[c][k].ns = t.cells[c][k].ns.Load()
		}
	}
	return s
}

func (t *timingFS) wrap(f vfs.File, err error, name string) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, class: classOf(name)}, nil
}

func (t *timingFS) Create(name string) (vfs.File, error) {
	f, err := t.FS.Create(name)
	return t.wrap(f, err, name)
}

func (t *timingFS) Append(name string) (vfs.File, error) {
	f, err := t.FS.Append(name)
	return t.wrap(f, err, name)
}

func (t *timingFS) Open(name string) (vfs.File, error) {
	f, err := t.FS.Open(name)
	return t.wrap(f, err, name)
}

type timedFile struct {
	vfs.File
	fs    *timingFS
	class fileClass
}

// begin returns the call's start time, or the zero time when untimed.
func (f *timedFile) begin() time.Time {
	if f.fs.log.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

func (f *timedFile) end(kind ioKind, start time.Time, n int) {
	c := &f.fs.cells[f.class][kind]
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	if log := f.fs.log.Load(); log != nil && !start.IsZero() {
		d := time.Since(start)
		c.ns.Add(int64(d))
		log.add(ioSpan{startNs: int64(start.Sub(log.origin)), durNs: int64(d),
			bytes: int32(n), class: f.class, kind: kind})
	}
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := f.begin()
	n, err := f.File.ReadAt(p, off)
	f.end(ioRead, t0, n)
	return n, err
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := f.begin()
	n, err := f.File.Write(p)
	f.end(ioWrite, t0, n)
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := f.begin()
	err := f.File.Sync()
	f.end(ioSync, t0, 0)
	return err
}
