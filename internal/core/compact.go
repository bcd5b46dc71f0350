package core

import (
	"sort"

	"lsmlab/internal/compaction"
	"lsmlab/internal/events"
	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/trace"
	"lsmlab/internal/wisckey"
)

// stripeOf returns the snapshot stripe of a sequence number: the count
// of live snapshots strictly below it. Two versions of a key in the
// same stripe are indistinguishable to every live or future reader, so
// only the newest survives compaction.
func stripeOf(seq kv.SeqNum, snapshots []kv.SeqNum) int {
	// snapshots is sorted ascending.
	lo, hi := 0, len(snapshots)
	for lo < hi {
		mid := (lo + hi) / 2
		if snapshots[mid] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// liveSnapshots returns the active snapshot sequence numbers, ascending.
func (db *DB) liveSnapshots() []kv.SeqNum {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]kv.SeqNum, 0, len(db.snapshots))
	for seq := range db.snapshots {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// compactionIter merges the input iterators and applies the LSM
// garbage-collection rules of tutorial §2.1.2: retain the newest
// version per snapshot stripe, drop entries shadowed by tombstones or
// range tombstones within a stripe, annihilate single-deletes with
// their matching insert, and drop tombstones that reach the bottom of
// the tree with no snapshot protecting older data.
type compactionIter struct {
	src       *kv.MergingIterator
	rangeDels []kv.RangeTombstone
	snapshots []kv.SeqNum
	bottom    bool
	db        *DB

	// Current group state.
	curUK      []byte
	lastStripe int
	haveKept   bool

	// queue holds extra output entries (unfoldable merge operands) to
	// drain before consuming more input.
	queue []kv.Entry

	key, value []byte
	valid      bool
	srcValid   bool
}

func newCompactionIter(src *kv.MergingIterator, rangeDels []kv.RangeTombstone, snapshots []kv.SeqNum, bottom bool, db *DB) *compactionIter {
	return &compactionIter{src: src, rangeDels: rangeDels, snapshots: snapshots, bottom: bottom, db: db}
}

// coveredByRangeDel reports whether an entry is deletable because a
// range tombstone in the same stripe shadows it.
func (ci *compactionIter) coveredByRangeDel(ukey []byte, seq kv.SeqNum) bool {
	s := stripeOf(seq, ci.snapshots)
	for _, rt := range ci.rangeDels {
		if rt.Seq > seq && rt.Covers(ukey, seq) && stripeOf(rt.Seq, ci.snapshots) == s {
			return true
		}
	}
	return false
}

// first positions at the first surviving entry.
func (ci *compactionIter) first() bool {
	ci.srcValid = ci.src.First()
	ci.curUK = nil
	return ci.next()
}

// next advances to the next surviving entry, applying all drop rules.
func (ci *compactionIter) next() bool {
	m := &ci.db.m
	if len(ci.queue) > 0 {
		e := ci.queue[0]
		ci.queue = ci.queue[1:]
		ci.emit(e.Key, e.Value, stripeOf(e.Seq(), ci.snapshots))
		return true
	}
	for ci.srcValid {
		ikey := ci.src.Key()
		ukey, seq, kind, _ := kv.ParseKey(ikey)

		if ci.curUK == nil || kv.CompareUser(ukey, ci.curUK) != 0 {
			ci.curUK = append(ci.curUK[:0], ukey...)
			ci.haveKept = false
			ci.lastStripe = -1
		}

		stripe := stripeOf(seq, ci.snapshots)

		// Older version in a stripe that already kept a newer one.
		if ci.haveKept && stripe == ci.lastStripe {
			if kind == kv.KindDelete || kind == kv.KindSingleDelete {
				m.TombstonesDropped.Add(1)
			} else {
				m.EntriesDropped.Add(1)
			}
			ci.srcValid = ci.src.Next()
			continue
		}

		// Shadowed by a same-stripe range tombstone.
		if ci.coveredByRangeDel(ukey, seq) {
			m.EntriesDropped.Add(1)
			ci.srcValid = ci.src.Next()
			continue
		}

		switch kind {
		case kv.KindMerge:
			if done := ci.foldMerge(seq, stripe); done {
				return true
			}
			continue

		case kv.KindSingleDelete:
			// Build the tombstone's key from the stable copy: advancing
			// the merged iterator below invalidates ukey, which aliases
			// the iterator's internal buffer.
			sdKey := kv.MakeKey(ci.curUK, seq, kv.KindSingleDelete)
			// Peek at the next entry: if it is the same key's next older
			// version, in the same stripe, and a plain insert, the pair
			// annihilates (RocksDB SingleDelete semantics).
			if ci.src.Next() {
				nuk, nseq, nkind, _ := kv.ParseKey(ci.src.Key())
				if kv.CompareUser(nuk, ci.curUK) == 0 &&
					stripeOf(nseq, ci.snapshots) == stripe &&
					(nkind == kv.KindSet || nkind == kv.KindValuePointer) {
					m.TombstonesDropped.Add(1)
					m.EntriesDropped.Add(1)
					ci.srcValid = ci.src.Next()
					// Both dropped; a newer-stripe entry was not kept, so
					// leave haveKept untouched for deeper (older) versions.
					continue
				}
				ci.srcValid = true
			} else {
				ci.srcValid = false
			}
			// No annihilation: the single-delete behaves like a tombstone.
			if ci.bottom && stripe == 0 {
				m.TombstonesDropped.Add(1)
				ci.haveKept = true
				ci.lastStripe = stripe
				continue
			}
			ci.emit(sdKey, nil, stripe)
			return true

		case kv.KindDelete:
			if ci.bottom && stripe == 0 {
				// Bottom of the tree, no snapshot below: the tombstone
				// has done its job and is purged (§2.1.2 Compaction).
				m.TombstonesDropped.Add(1)
				ci.haveKept = true
				ci.lastStripe = stripe
				ci.srcValid = ci.src.Next()
				continue
			}
			ci.emit(ikey, ci.src.Value(), stripe)
			ci.srcValid = ci.src.Next()
			return true

		default: // KindSet, KindValuePointer
			ci.emit(ikey, ci.src.Value(), stripe)
			ci.srcValid = ci.src.Next()
			return true
		}
	}
	ci.valid = false
	return false
}

// foldMerge handles a merge-operand chain starting at the current
// entry (§2.2.6): same-key, same-stripe operands collect until a base
// value folds them into a Set, a tombstone folds them onto nil, the
// stripe or key ends, or input runs out. Folding never crosses a
// snapshot stripe — readers at intermediate snapshots need the
// intermediate states. It reports whether an output was produced (true)
// or the caller should continue the main loop (operands were queued or
// consumed).
func (ci *compactionIter) foldMerge(firstSeq kv.SeqNum, stripe int) bool {
	m := &ci.db.m
	op := ci.db.opts.MergeOperator
	// Operand chain, newest first, keeping real sequence numbers so
	// unfolded survivors re-emit at their original positions.
	type operand struct {
		seq kv.SeqNum
		val []byte
	}
	chain := []operand{{firstSeq, cp(ci.src.Value())}}

	var base []byte
	var baseSeq kv.SeqNum
	haveBase := false
	baseIsDelete := false
	for {
		ci.srcValid = ci.src.Next()
		if !ci.srcValid {
			break
		}
		nuk, nseq, nkind, _ := kv.ParseKey(ci.src.Key())
		if kv.CompareUser(nuk, ci.curUK) != 0 || stripeOf(nseq, ci.snapshots) != stripe {
			break
		}
		if ci.coveredByRangeDel(nuk, nseq) {
			// Older history is range-deleted within this stripe: the
			// chain folds onto nil, and the covered entry drops.
			baseIsDelete, haveBase = true, true
			m.EntriesDropped.Add(1)
			ci.srcValid = ci.src.Next()
			break
		}
		if nkind == kv.KindMerge {
			chain = append(chain, operand{nseq, cp(ci.src.Value())})
			continue
		}
		switch nkind {
		case kv.KindSet:
			base, baseSeq, haveBase = cp(ci.src.Value()), nseq, true
		case kv.KindValuePointer:
			p, err := wisckey.DecodePointer(ci.src.Value())
			if err == nil {
				if v, verr := ci.db.vlog.Read(p); verr == nil {
					base, baseSeq, haveBase = v, nseq, true
				}
			}
		default: // point tombstones: fold onto nil
			baseIsDelete, haveBase = true, true
			m.TombstonesDropped.Add(1)
		}
		ci.srcValid = ci.src.Next()
		break
	}

	// Fold when a base (or definitive absence at the tree bottom) is in
	// hand and an operator exists.
	if op != nil && (haveBase || (ci.bottom && stripe == 0)) {
		operands := make([][]byte, 0, len(chain))
		for i := len(chain) - 1; i >= 0; i-- {
			operands = append(operands, chain[i].val)
		}
		var b []byte
		if !baseIsDelete {
			b = base
		}
		v, err := op.FullMerge(ci.curUK, b, operands)
		if err == nil {
			m.EntriesDropped.Add(int64(len(operands))) // operands consumed
			ci.emit(kv.MakeKey(ci.curUK, firstSeq, kv.KindSet), v, stripe)
			return true
		}
	}

	// Cannot fold: re-emit the survivors. Adjacent operands partial-
	// merge when the operator allows, keeping the newer one's seq.
	if op != nil {
		for i := 0; i+1 < len(chain); {
			if combined, ok := op.PartialMerge(ci.curUK, chain[i+1].val, chain[i].val); ok {
				chain[i].val = combined
				chain = append(chain[:i+1], chain[i+2:]...)
				m.EntriesDropped.Add(1)
			} else {
				i++
			}
		}
	}
	for _, o := range chain {
		ci.queue = append(ci.queue, kv.Entry{
			Key:   kv.MakeKey(ci.curUK, o.seq, kv.KindMerge),
			Value: o.val,
		})
	}
	// An unfoldable base (no operator, or the operator failed) survives
	// at its own position.
	if haveBase && !baseIsDelete {
		ci.queue = append(ci.queue, kv.Entry{
			Key:   kv.MakeKey(ci.curUK, baseSeq, kv.KindSet),
			Value: base,
		})
	}
	ci.haveKept = true
	ci.lastStripe = stripe
	if len(ci.queue) > 0 {
		e := ci.queue[0]
		ci.queue = ci.queue[1:]
		ci.emit(e.Key, e.Value, stripe)
		return true
	}
	return false
}

func (ci *compactionIter) emit(ikey, value []byte, stripe int) {
	ci.key = append(ci.key[:0], ikey...)
	ci.value = append(ci.value[:0], value...)
	ci.haveKept = true
	ci.lastStripe = stripe
	ci.valid = true
}

// survivingRangeDels filters the input range tombstones: at the bottom
// level with no live snapshots they are fully applied and can vanish.
func survivingRangeDels(rangeDels []kv.RangeTombstone, bottom bool, snapshots []kv.SeqNum) []kv.RangeTombstone {
	if bottom && len(snapshots) == 0 {
		return nil
	}
	return rangeDels
}

// runCompaction executes one job end to end, bracketed by
// CompactionBegin/CompactionEnd events carrying the job's shape
// (levels, input/output files and bytes, trigger reason) and timed into
// the compaction latency histogram. Every outcome emits exactly one
// matching end event. rs is the read state pinned when the job was
// picked, which lists every input; runCompaction releases it.
func (db *DB) runCompaction(job *compaction.Job, rs *readState) error {
	defer rs.unref()
	var inFiles int
	for _, files := range job.Inputs {
		inFiles += len(files)
	}
	jobID := db.nextJobID()
	start := db.opts.NowNs()
	sp := db.tracer.StartRetained(trace.OpCompaction)
	db.emit(events.Event{Type: events.CompactionBegin, JobID: jobID,
		Level: job.FromLevel, ToLevel: job.ToLevel,
		InputFiles: inFiles, InputBytes: int64(job.InputBytes()),
		Reason: string(job.Reason)})
	metas, err := db.doCompaction(job, rs)
	dur := db.opts.NowNs() - start
	db.m.CompactionNs.RecordNs(dur)
	sp.AddBytes(int64(totalBytes(metas)))
	sp.AddEntries(len(metas))
	sp.SetErr(err)
	db.tracer.Finish(sp)
	db.emit(events.Event{Type: events.CompactionEnd, JobID: jobID,
		Level: job.FromLevel, ToLevel: job.ToLevel,
		InputFiles: inFiles, InputBytes: int64(job.InputBytes()),
		OutputFiles: len(metas), OutputBytes: int64(totalBytes(metas)),
		DurationNs: dur, Reason: string(job.Reason), Err: err})
	return err
}

// doCompaction is the body of runCompaction: merge inputs, write
// outputs (throttled), install the new version, and delete obsolete
// files (tutorial §2.1.2 Compaction). It returns the installed file
// metadata for event reporting.
func (db *DB) doCompaction(job *compaction.Job, rs *readState) ([]*manifest.FileMeta, error) {
	var (
		iters     []kv.Iterator
		rangeDels []kv.RangeTombstone
		overall   kv.KeyRange
		inEntries int64
		inBytes   uint64
	)
	for lvl, files := range job.Inputs {
		var lvlBytes int64
		for _, f := range files {
			r, err := db.tcache.get(f.Num)
			if err != nil {
				return nil, err
			}
			iters = append(iters, r.NewIterator())
			rangeDels = append(rangeDels, r.RangeTombstones()...)
			overall.Extend(f.Smallest)
			overall.Extend(f.Largest)
			inEntries += int64(f.NumEntries)
			inBytes += f.Size
			lvlBytes += int64(f.Size)
		}
		if db.prof != nil {
			db.prof.recordCompactionIn(lvl, lvlBytes)
		}
	}

	snapshots := db.liveSnapshots()
	// Tombstones may be purged only when the output reaches the tree's
	// last level AND no resident run survives there beside it: a tiered
	// bottom level keeps its other runs, whose older versions the
	// tombstone must continue to shadow.
	bottom := job.ToLevel == db.opts.NumLevels-1 &&
		(!job.TargetTiered || job.AllOfTargetLevel)

	db.mu.Lock()
	bits := db.filterBitsForRun(db.version, job.ToLevel)
	db.mu.Unlock()

	merge := kv.NewMergingIterator(iters...)
	ci := newCompactionIter(merge, rangeDels, snapshots, bottom, db)
	out := db.newOutputSet(bits, true, survivingRangeDels(rangeDels, bottom, snapshots), overall)
	// Keep the FADE clock honest: outputs that still carry tombstones
	// inherit the inputs' oldest tombstone timestamp — except at the
	// bottom level, where snapshot-protected leftovers would otherwise
	// re-trigger forever.
	if !bottom {
		for _, files := range job.Inputs {
			for _, f := range files {
				if f.OldestTombstoneNs > 0 &&
					(out.inheritTombstoneNs == 0 || f.OldestTombstoneNs < out.inheritTombstoneNs) {
					out.inheritTombstoneNs = f.OldestTombstoneNs
				}
			}
		}
	}

	for ok := ci.first(); ok; ok = ci.next() {
		if err := out.add(ci.key, ci.value); err != nil {
			out.abort()
			return nil, err
		}
	}
	// A corrupt input block makes its source look exhausted rather than
	// failed; installing the output here would silently drop every entry
	// after the bad block and delete the only copy. Surface it instead —
	// the background-failure path degrades the store on corruption.
	if err := merge.Error(); err != nil {
		out.abort()
		return nil, err
	}
	metas, err := out.finish()
	if err != nil {
		out.abort()
		return nil, err
	}

	// Install the result.
	removed := make(map[int][]uint64)
	for lvl, files := range job.Inputs {
		for _, f := range files {
			removed[lvl] = append(removed[lvl], f.Num)
		}
	}
	prefetch := db.opts.PrefetchAfterCompaction && db.bcache != nil
	var warm *readState
	db.mu.Lock()
	db.version = db.version.ApplyCompaction(removed, job.ToLevel, metas, job.TargetTiered)
	db.publishReadStateLocked()
	err = db.commitLocked()
	if err == nil && prefetch {
		warm, _ = db.loadReadState() // lists the outputs; nil once closed
	}
	db.mu.Unlock()
	if err != nil {
		// The manifest still lists the inputs: none of them may die.
		return metas, err
	}

	db.m.Compactions.Add(1)
	if job.Reason == compaction.ReasonTombstoneAge {
		db.m.AgeCompactions.Add(1)
	}
	db.m.CompactionBytesRead.Add(int64(inBytes))
	db.m.CompactionBytesWritten.Add(int64(totalBytes(metas)))
	if db.prof != nil {
		db.prof.recordWrite(job.ToLevel, string(job.Reason), int64(totalBytes(metas)))
	}

	// Leaper-style hotness capture: before evicting the inputs, record
	// the user-key spans of their blocks that were actually resident in
	// the cache — the "hot pages" Leaper's model predicts (§2.1.3,
	// [128]).
	var hotRanges []kv.KeyRange
	if prefetch {
		hotRanges = db.collectHotRanges(job)
	}

	// The inputs die, leaving caches and disk, once the last read state
	// listing them (at the latest, rs) is released.
	for _, nums := range removed {
		db.tables.drop(nums, false)
	}

	// Re-warm: prefetch the output blocks covering the previously hot
	// key ranges, restoring the cache before readers miss.
	if warm != nil {
		if len(hotRanges) > 0 {
			db.prefetchOutputs(metas, hotRanges)
		}
		warm.unref()
	}
	return metas, nil
}

// collectHotRanges returns the user-key spans of the job's input blocks
// that are currently cached. The caller holds a read state listing the
// inputs.
func (db *DB) collectHotRanges(job *compaction.Job) []kv.KeyRange {
	var hot []kv.KeyRange
	for _, files := range job.Inputs {
		for _, f := range files {
			r, err := db.tcache.get(f.Num)
			if err != nil {
				continue
			}
			prev := f.Smallest
			r.BlockSpans(func(offset uint64, lastKey []byte) {
				last := append([]byte(nil), kv.UserKey(lastKey)...)
				if db.bcache.Contains(f.Num, offset) {
					hot = append(hot, kv.KeyRange{
						Smallest: append([]byte(nil), prev...),
						Largest:  last,
					})
				}
				prev = last
			})
		}
	}
	return hot
}

// prefetchOutputs re-warms the block cache with the output blocks that
// overlap the previously hot key ranges, up to half the cache capacity
// — Leaper's prediction realized with observed hotness: only data that
// was hot before the compaction is loaded, so the prefetch cannot
// pollute the cache with cold blocks. The caller holds a read state
// listing the outputs.
func (db *DB) prefetchOutputs(metas []*manifest.FileMeta, hotRanges []kv.KeyRange) {
	budget := int64(db.opts.CacheBytes / 2)
	if budget <= 0 {
		return
	}
	for _, m := range metas {
		if budget <= 0 {
			break
		}
		fileRange := m.KeyRange()
		var touches bool
		for _, hr := range hotRanges {
			if fileRange.Overlaps(hr) {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		r, err := db.tcache.get(m.Num)
		if err != nil {
			continue
		}
		for _, hr := range hotRanges {
			if budget <= 0 {
				break
			}
			if !fileRange.Overlaps(hr) {
				continue
			}
			budget -= r.WarmRange(hr.Smallest, hr.Largest, budget)
		}
	}
}
