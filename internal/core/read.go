package core

import (
	"bytes"
	"sync"

	"lsmlab/internal/admission"
	"lsmlab/internal/bloom"
	"lsmlab/internal/kv"
	"lsmlab/internal/sstable"
	"lsmlab/internal/trace"
	"lsmlab/internal/wisckey"
)

// readScratch carries the reusable buffers of one point lookup: the
// search key shared by every probe and the sstable cursors. Pooled so
// the steady-state get path does zero heap allocations (proved by
// BenchmarkGetHot).
type readScratch struct {
	search []byte
	sst    sstable.GetScratch
	// sink is the profiler's level-tagging ReadStats shim; living in
	// the pooled scratch keeps its injection allocation-free.
	sink profSink
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

type wiscPointer = wisckey.Pointer

// readSeq is the sequence a read at snap observes. A latest read (snap
// 0) is bounded by the published watermark, not the allocation cursor:
// a commit group still applying to the memtable must stay invisible so
// no sequence-number hole can be observed. Loaded after the read state
// is pinned, it sees every write published before the pin.
func (db *DB) readSeq(snap kv.SeqNum) kv.SeqNum {
	if snap == 0 {
		return kv.SeqNum(db.visibleSeq.Load())
	}
	return snap
}

// Get returns the current value of key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) { return db.get(key, 0, 0) }

// GetTraced is Get carrying a wire-propagated trace id: the lookup's
// span adopts the id (0 mints a fresh one) and is always retained in
// the tracer's ring, so a client-requested trace can be found later via
// /traces. Without a tracer it behaves exactly like Get.
func (db *DB) GetTraced(key []byte, traceID uint64) ([]byte, error) {
	return db.get(key, 0, traceID)
}

func (db *DB) get(key []byte, snap kv.SeqNum, traceID uint64) ([]byte, error) {
	if !db.timeOps {
		return db.getInner(key, snap, traceID)
	}
	// Timed wrapper kept out of the common body: a deferred closure
	// capturing start would cost an allocation per get.
	start := db.opts.NowNs()
	v, err := db.getInner(key, snap, traceID)
	db.m.GetNs.RecordSince(start, db.opts.NowNs())
	return v, err
}

func (db *DB) getInner(key []byte, snap kv.SeqNum, traceID uint64) ([]byte, error) {
	// The get counter's return value doubles as the profiler's sampling
	// clock: every profSample-th lookup feeds the sketches and carries
	// the level-tagging sink (weighted back up by the sampling factor),
	// so the common get pays the always-on profiler nothing beyond the
	// counter increment it already did. One hash serves the profiler and
	// every Bloom probe (hash sharing, §2.1.3).
	n := db.m.Gets.Add(1)
	hash := bloom.Hash64(key)
	profiled := db.prof != nil && profSampled(uint64(n))
	if profiled {
		db.prof.observe(profGet, hash, key)
	}
	var sp *trace.Span
	var st sstable.ReadStats
	if db.tracer != nil {
		sp = db.tracer.StartID(trace.OpGet, traceID)
		if sp != nil { // head sampling may have declined this op
			if traceID != 0 {
				sp.Retain() // explicitly requested over the wire
			}
			sp.SetTenant(admission.TenantOf(key))
			st = &tracedSink{m: &db.m, sp: sp}
			defer db.tracer.Finish(sp)
		}
	}
	var t0 int64
	if sp != nil {
		t0 = db.opts.NowNs()
	}
	rs, err := db.loadReadState()
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	defer rs.unref()
	seq := db.readSeq(snap)
	sc := readScratchPool.Get().(*readScratch)
	e, err := db.searchState(rs, seq, key, hash, profiled, sp, st, sc)
	if sp != nil {
		sp.StageSince("search", t0, db.opts.NowNs())
	}
	if err != nil {
		readScratchPool.Put(sc)
		if err != ErrNotFound {
			sp.SetErr(err)
		}
		return nil, err
	}
	// e.Key aliases the scratch; read everything needed from it before
	// the scratch returns to the pool. e.Value aliases the memtable or
	// an immutable cached block and stays valid.
	kind := e.Kind()
	readScratchPool.Put(sc)
	switch kind {
	case kv.KindSet:
		db.m.GetHits.Add(1)
		sp.AddBytes(int64(len(e.Value)))
		return e.Value, nil
	case kv.KindMerge:
		// Slow path: walk the key's full visible history to fold the
		// operands onto their base (§2.2.6).
		if sp != nil {
			t0 = db.opts.NowNs()
		}
		v, err := db.resolveMergeSlow(rs, key, seq)
		if sp != nil {
			sp.StageSince("merge", t0, db.opts.NowNs())
		}
		if err != nil {
			sp.SetErr(err)
			return nil, err
		}
		db.m.GetHits.Add(1)
		sp.AddBytes(int64(len(v)))
		return v, nil
	case kv.KindValuePointer:
		p, err := wisckey.DecodePointer(e.Value)
		if err != nil {
			sp.SetErr(err)
			return nil, err
		}
		if sp != nil {
			t0 = db.opts.NowNs()
		}
		v, err := db.vlog.Read(p)
		if sp != nil {
			sp.AddVlogRead()
			sp.StageSince("vlog", t0, db.opts.NowNs())
		}
		if err != nil {
			sp.SetErr(err)
			return nil, err
		}
		db.m.GetHits.Add(1)
		sp.AddBytes(int64(len(v)))
		return v, nil
	default:
		return nil, ErrNotFound
	}
}

// getEntry returns the newest visible raw entry (which may be a
// tombstone or value pointer), with range tombstones applied.
func (db *DB) getEntry(key []byte, snap kv.SeqNum) (kv.Entry, error) {
	rs, err := db.loadReadState()
	if err != nil {
		return kv.Entry{}, err
	}
	defer rs.unref()
	sc := readScratchPool.Get().(*readScratch)
	e, err := db.searchState(rs, db.readSeq(snap), key, bloom.Hash64(key), false, nil, nil, sc)
	if err == nil {
		e = e.Clone() // detach from the scratch for non-hot-path callers
	}
	readScratchPool.Put(sc)
	return e, err
}

// searchState looks key up at seq in the pinned state rs, with the
// key's precomputed hash, the profiler's sampling decision, an optional
// span and per-operation read stats sink (both nil on untraced
// lookups), and the caller's pooled scratch. It walks the sources
// newest to oldest, maintaining the highest covering range-tombstone
// sequence seen so far. The first point entry found is the newest
// visible version; it is live only if no newer range tombstone covers
// it (tutorial §2.1.2 Get), and ErrNotFound otherwise. The returned
// entry's key aliases sc; the probe chain allocates nothing.
func (db *DB) searchState(rs *readState, seq kv.SeqNum, key []byte, hash uint64, profiled bool, sp *trace.Span, st sstable.ReadStats, sc *readScratch) (kv.Entry, error) {
	var maxRT kv.SeqNum
	// One search key serves every memtable and run probe.
	sc.search = kv.AppendSearchKey(sc.search[:0], key, seq)
	// On a sampled lookup, probes report through the scratch's
	// level-tagging sink, which forwards to the usual metrics (or
	// traced) sink and attributes each block fetch to its level with
	// the sampling weight.
	if profiled {
		if st == nil {
			sc.sink.base = db.stSink
		} else {
			sc.sink.base = st
		}
		sc.sink.lv = db.prof.levels
		sc.sink.w = profSample
		st = &sc.sink
	}

	// Memtables.
	for _, mw := range rs.mems {
		for _, rt := range mw.rangeTombstones() {
			if rt.Seq <= seq && rt.Seq > maxRT &&
				bytes.Compare(rt.Start, key) <= 0 && bytes.Compare(key, rt.End) < 0 {
				maxRT = rt.Seq
			}
		}
		if e, ok := mw.mt.GetSeek(sc.search, key, seq); ok {
			if e.Seq() < maxRT {
				return kv.Entry{}, ErrNotFound // shadowed by a range delete
			}
			return e, nil
		}
	}

	// Disk levels: L0 runs newest first, then deeper levels.
	for lvl, level := range rs.version.Levels {
		if profiled {
			sc.sink.level = lvl
		}
		for _, run := range level.Runs {
			f := run.FindFile(key)
			if f == nil {
				continue
			}
			r, err := db.tcache.get(f.Num)
			if err != nil {
				return kv.Entry{}, err
			}
			for _, rt := range r.RangeTombstones() {
				if rt.Seq <= seq && rt.Seq > maxRT && rt.Covers(key, 0) {
					maxRT = rt.Seq
				}
			}
			db.m.RunsProbed.Add(1)
			if profiled {
				db.prof.levels[lvl].runsProbed.Add(profSample)
			}
			sp.AddRun()
			e, ok, err := r.GetScratched(key, sc.search, hash, st, &sc.sst)
			if err != nil {
				return kv.Entry{}, err
			}
			if ok {
				if e.Seq() < maxRT {
					return kv.Entry{}, ErrNotFound // shadowed by a range delete
				}
				return e, nil
			}
			if len(r.RangeTombstones()) == 0 && r.FilterSizeBytes() > 0 {
				// A filtered run that did not hold the key, whether the
				// filter rejected it or passed it in vain (only
				// unambiguous without range tombstones extending the
				// key range); less FilterNegatives, the false positives.
				db.m.FilterFalsePos.Add(1)
				sp.AddFalsePositive()
			}
		}
	}

	return kv.Entry{}, ErrNotFound
}

// pointerIsLive reports whether p is still the live value location of
// key — the WiscKey GC liveness check.
func (db *DB) pointerIsLive(key []byte, p wisckey.Pointer) (bool, error) {
	e, err := db.getEntry(key, 0)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if e.Kind() != kv.KindValuePointer {
		return false, nil
	}
	cur, err := wisckey.DecodePointer(e.Value)
	if err != nil {
		return false, err
	}
	return cur == p, nil
}

// KV is one key-value pair returned by Scan.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit live entries with keys in [start, end);
// limit <= 0 means unlimited. It is a convenience wrapper over
// NewIterator (tutorial §2.1.2 Scan).
func (db *DB) Scan(start, end []byte, limit int) ([]KV, error) {
	return db.scan(start, end, limit, 0)
}

// ScanTraced is Scan carrying a wire-propagated trace id: the scan's
// span adopts the id (0 mints a fresh one) and is always retained in
// the tracer's ring. Without a tracer it behaves exactly like Scan.
func (db *DB) ScanTraced(start, end []byte, limit int, traceID uint64) ([]KV, error) {
	return db.scan(start, end, limit, traceID)
}

func (db *DB) scan(start, end []byte, limit int, traceID uint64) ([]KV, error) {
	if db.prof != nil {
		if h := bloom.Hash64(start); db.prof.tick(h) {
			db.prof.observe(profScan, h, start)
		}
	}
	var sp *trace.Span
	if db.tracer != nil {
		sp = db.tracer.StartID(trace.OpScan, traceID)
		if sp != nil { // head sampling may have declined this op
			if traceID != 0 {
				sp.Retain() // explicitly requested over the wire
			}
			sp.SetTenant(admission.TenantOf(start))
			defer db.tracer.Finish(sp)
		}
	}
	it, err := db.NewIterator(IterOptions{LowerBound: start, UpperBound: end})
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	defer it.Close()
	var t0 int64
	if sp != nil {
		t0 = db.opts.NowNs()
	}
	var out []KV
	var bytes int64
	for ok := it.First(); ok; ok = it.Next() {
		out = append(out, KV{Key: cp(it.Key()), Value: cp(it.Value())})
		bytes += int64(len(it.Key()) + len(it.Value()))
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	err = it.Err()
	db.m.ScanEntries.Add(int64(len(out)))
	if sp != nil {
		sp.StageSince("iterate", t0, db.opts.NowNs())
		sp.AddEntries(len(out))
		sp.AddBytes(bytes)
		sp.SetErr(err)
	}
	return out, err
}
