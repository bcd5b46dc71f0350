package core

import (
	"sort"

	"lsmlab/internal/events"
	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/sstable"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
)

// outputSet writes a stream of sorted entries into one or more table
// files split at the target size, and distributes surviving range
// tombstones across those files clipped at file boundaries so that the
// files of the resulting run never overlap.
type outputSet struct {
	db         *DB
	bitsPerKey float64
	limiter    *rateLimiter
	// inheritTombstoneNs propagates the oldest input tombstone's
	// creation time to outputs that still carry tombstones, so the FADE
	// persistence deadline is measured from the original delete, not
	// from the latest rewrite (Lethe, §2.3.3).
	inheritTombstoneNs int64

	cur      *sstable.Writer
	curFile  vfs.File
	curNum   uint64
	metas    []*manifest.FileMeta
	pending  []kv.RangeTombstone // surviving tombstones, sorted by start
	curStart []byte              // clip lower bound for the open file (nil = unbounded)
	overall  kv.KeyRange         // union of input key ranges (clip envelope)
}

func (db *DB) newOutputSet(bitsPerKey float64, throttled bool, rangeDels []kv.RangeTombstone, overall kv.KeyRange) *outputSet {
	o := &outputSet{db: db, bitsPerKey: bitsPerKey, overall: overall}
	if throttled && db.opts.CompactionBandwidthBytesPerSec > 0 {
		// Each compaction gets its own token bucket: the simulated
		// device's aggregate bandwidth scales with concurrency (SSD/NVM
		// queue-depth parallelism, §2.2.5), while any single compaction
		// is paced so flushes keep headroom (SILK, §2.2.3).
		o.limiter = newRateLimiter(db.opts.CompactionBandwidthBytesPerSec, db.opts.NowNs, db.opts.SleepFunc,
			func(ns int64) { db.m.ThrottleNs.Add(ns) })
	}
	// Clip tombstones to the compaction envelope and sort by start.
	for _, rt := range rangeDels {
		c := rt
		if overall.Smallest != nil && kv.CompareUser(c.Start, overall.Smallest) < 0 {
			c.Start = overall.Smallest
		}
		upper := upperBoundExclusive(overall.Largest)
		if upper != nil && kv.CompareUser(c.End, upper) > 0 {
			c.End = upper
		}
		if !c.Empty() {
			o.pending = append(o.pending, c)
		}
	}
	sort.Slice(o.pending, func(i, j int) bool {
		return kv.CompareUser(o.pending[i].Start, o.pending[j].Start) < 0
	})
	return o
}

// upperBoundExclusive returns the smallest key strictly greater than k
// (k with a zero byte appended), or nil for a nil k.
func upperBoundExclusive(k []byte) []byte {
	if k == nil {
		return nil
	}
	return append(append([]byte(nil), k...), 0)
}

func (o *outputSet) openFile() error {
	o.db.mu.Lock()
	num := o.db.allocFileNum()
	o.db.mu.Unlock()
	f, err := o.db.fs.Create(vfs.Join(o.db.dir, manifest.FileName(num)))
	if err != nil {
		return err
	}
	o.curFile = f
	o.curNum = num
	o.cur = sstable.NewWriter(f, sstable.WriterOptions{
		BlockSize:  o.db.opts.BlockSize,
		BitsPerKey: o.bitsPerKey,
		NowNs:      o.db.opts.NowNs,
	})
	return nil
}

// add appends one entry, opening and splitting files as needed.
func (o *outputSet) add(ikey, value []byte) error {
	if o.cur == nil {
		if err := o.openFile(); err != nil {
			return err
		}
	}
	if o.limiter != nil {
		o.limiter.waitFor(len(ikey) + len(value))
	}
	if err := o.cur.Add(ikey, value); err != nil {
		return err
	}
	if o.cur.EstimatedSize() >= o.db.opts.TargetFileSize {
		return o.closeCurrent(false)
	}
	return nil
}

// closeCurrent finishes the open file, assigning it the range-tombstone
// pieces that fall at or below its boundary. final marks the last file
// of the compaction, which absorbs all remaining tombstone pieces.
func (o *outputSet) closeCurrent(final bool) error {
	if o.cur == nil {
		return nil
	}
	// The file's clip window is [o.curStart, boundary). For the final
	// file the boundary is the envelope's upper bound.
	var boundary []byte
	if final {
		boundary = upperBoundExclusive(o.overall.Largest)
	} else {
		boundary = upperBoundExclusive(o.lastPointKey())
	}
	var remaining []kv.RangeTombstone
	for _, rt := range o.pending {
		piece := rt
		if o.curStart != nil && kv.CompareUser(piece.Start, o.curStart) < 0 {
			piece.Start = o.curStart
		}
		if boundary != nil && kv.CompareUser(piece.End, boundary) > 0 {
			// Split: the part past the boundary stays pending. The
			// remainder keeps its own start if that lies beyond the
			// boundary — clamping it down would widen the tombstone
			// over keys it never covered.
			rest := rt
			if kv.CompareUser(boundary, rest.Start) > 0 {
				rest.Start = boundary
			}
			if !rest.Empty() {
				remaining = append(remaining, rest)
			}
			piece.End = boundary
		}
		if !piece.Empty() {
			o.cur.AddRangeTombstone(piece)
		}
	}
	o.pending = remaining
	o.curStart = boundary

	p, err := o.cur.Finish()
	if err != nil {
		return err
	}
	if err := o.curFile.Close(); err != nil {
		return err
	}
	size := o.cur.EstimatedSize()
	meta := &manifest.FileMeta{
		Num:               o.curNum,
		Size:              size,
		Smallest:          p.Smallest,
		Largest:           p.Largest,
		SmallestSeq:       p.SmallestSeq,
		LargestSeq:        p.LargestSeq,
		NumEntries:        p.NumEntries,
		NumTombstones:     p.NumTombstones,
		NumRangeDels:      p.NumRangeDels,
		OldestTombstoneNs: p.OldestTombstoneNs,
	}
	if meta.NumTombstones+meta.NumRangeDels > 0 && o.inheritTombstoneNs > 0 &&
		(meta.OldestTombstoneNs == 0 || o.inheritTombstoneNs < meta.OldestTombstoneNs) {
		meta.OldestTombstoneNs = o.inheritTombstoneNs
	}
	o.metas = append(o.metas, meta)
	o.cur = nil
	o.curFile = nil
	return nil
}

// lastPointKey returns the largest user key added to the open file.
func (o *outputSet) lastPointKey() []byte {
	// The writer tracks Largest in its properties as keys are added; we
	// reach it through a tiny helper on the writer.
	return o.cur.LargestUserKey()
}

// finish closes the last file (creating a tombstone-only file if point
// entries never materialized but tombstones survive) and returns the
// metadata of all written files.
func (o *outputSet) finish() ([]*manifest.FileMeta, error) {
	if o.cur == nil && len(o.pending) > 0 {
		if err := o.openFile(); err != nil {
			return nil, err
		}
	}
	if o.cur != nil {
		if err := o.closeCurrent(true); err != nil {
			return nil, err
		}
	}
	return o.metas, nil
}

// abort removes any files written so far (on error paths).
func (o *outputSet) abort() {
	if o.curFile != nil {
		o.curFile.Close()
		o.db.fs.Remove(vfs.Join(o.db.dir, manifest.FileName(o.curNum)))
	}
	for _, m := range o.metas {
		o.db.fs.Remove(vfs.Join(o.db.dir, manifest.FileName(m.Num)))
	}
}

// totalBytes sums the written file sizes.
func totalBytes(metas []*manifest.FileMeta) uint64 {
	var s uint64
	for _, m := range metas {
		s += m.Size
	}
	return s
}

// flushMemtable writes one immutable buffer to a new level-0 run
// (tutorial §2.1.2 Flush), bracketed by FlushBegin/FlushEnd events and
// timed into the flush latency histogram. Every outcome — success,
// empty buffer, or error — emits exactly one matching end event.
func (db *DB) flushMemtable(mw *memWrapper) error {
	jobID := db.nextJobID()
	start := db.opts.NowNs()
	sp := db.tracer.StartRetained(trace.OpFlush)
	db.emit(events.Event{Type: events.FlushBegin, JobID: jobID,
		InputBytes: int64(mw.mt.ApproximateBytes())})
	metas, err := db.doFlush(mw)
	dur := db.opts.NowNs() - start
	db.m.FlushNs.RecordNs(dur)
	sp.AddBytes(int64(totalBytes(metas)))
	sp.AddEntries(len(metas))
	sp.SetErr(err)
	db.tracer.Finish(sp)
	db.emit(events.Event{Type: events.FlushEnd, JobID: jobID,
		OutputFiles: len(metas), OutputBytes: int64(totalBytes(metas)),
		DurationNs: dur, Err: err})
	return err
}

// doFlush is the body of flushMemtable; it returns the installed file
// metadata for event reporting. Nothing is garbage-collected at flush
// time: every version, tombstone, and range tombstone survives to disk.
func (db *DB) doFlush(mw *memWrapper) ([]*manifest.FileMeta, error) {
	// Wait out in-flight commit-group inserts: a buffer can be rotated
	// into the immutable queue while members of a claimed group are
	// still applying to it. Flushing before they land would write an
	// incomplete run and delete the WAL segment that still protects
	// those batches.
	mw.writers.Wait()
	rangeDels := mw.rangeTombstones()
	it := mw.mt.NewIterator()
	defer it.Close()

	// The envelope is the buffer's own key span.
	var overall kv.KeyRange
	for ok := it.First(); ok; ok = it.Next() {
		overall.Extend(kv.UserKey(it.Key()))
	}
	for _, rt := range rangeDels {
		overall.Extend(rt.Start)
		overall.Extend(rt.End)
	}

	db.mu.Lock()
	bits := db.filterBitsForRun(db.version, 0)
	db.mu.Unlock()

	out := db.newOutputSet(bits, false, rangeDels, overall)
	for ok := it.First(); ok; ok = it.Next() {
		if err := out.add(it.Key(), it.Value()); err != nil {
			out.abort()
			return nil, err
		}
	}
	metas, err := out.finish()
	if err != nil {
		out.abort()
		return nil, err
	}

	// Install in queue order: flushes may build concurrently, but the
	// level-0 run stack must reflect buffer recency, so a flush waits
	// until its buffer is the oldest still queued. (Recovery flushes are
	// not queued and install immediately.)
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		queued := false
		for _, x := range db.imm {
			if x == mw {
				queued = true
				break
			}
		}
		if !queued || db.imm[0] == mw || db.closed {
			break
		}
		db.cond.Wait()
	}
	// Readers see the new run and the retired buffer in one new state.
	defer db.publishReadStateLocked()
	if len(metas) > 0 {
		db.version = db.version.PushRun(0, &manifest.Run{Files: metas})
		if err := db.commitLocked(); err != nil {
			return metas, err
		}
		db.m.Flushes.Add(1)
		db.m.FlushBytes.Add(int64(totalBytes(metas)))
		if db.prof != nil {
			db.prof.recordWrite(0, "flush", int64(totalBytes(metas)))
		}
	}
	if len(db.imm) > 0 && db.imm[0] == mw {
		db.imm = db.imm[1:]
		if mw.walNum != 0 {
			db.fs.Remove(vfs.Join(db.dir, manifest.WALName(mw.walNum)))
		}
	}
	db.cond.Broadcast()
	return metas, nil
}
