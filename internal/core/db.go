package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lsmlab/internal/bloom"
	"lsmlab/internal/cache"
	"lsmlab/internal/compaction"
	"lsmlab/internal/events"
	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/memtable"
	"lsmlab/internal/metrics"
	"lsmlab/internal/sstable"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wal"
	"lsmlab/internal/wisckey"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database closed")

// ErrNotFound is returned by Get when the key has no live value.
var ErrNotFound = errors.New("lsm: key not found")

// memWrapper pairs a memtable with its range tombstones and the WAL
// segment that protects it.
type memWrapper struct {
	mt     memtable.Memtable
	walNum uint64
	// flushFailures counts consecutive failed flush attempts (guarded by
	// db.mu); retries back off so a persistently failing device does not
	// spin a worker at full speed.
	flushFailures int

	// writers counts commit-group members whose memtable inserts are
	// still in flight. A flush waits for it to drain, so a buffer
	// retired while a group is applying is never written to disk (and
	// its WAL segment never deleted) before those inserts land.
	writers sync.WaitGroup

	rmu       sync.RWMutex
	rangeDels []kv.RangeTombstone
}

func (m *memWrapper) addRangeDel(t kv.RangeTombstone) {
	m.rmu.Lock()
	m.rangeDels = append(m.rangeDels, t)
	m.rmu.Unlock()
}

func (m *memWrapper) rangeTombstones() []kv.RangeTombstone {
	m.rmu.RLock()
	defer m.rmu.RUnlock()
	return append([]kv.RangeTombstone(nil), m.rangeDels...)
}

// DB is an LSM-tree key-value store.
type DB struct {
	opts Options
	fs   vfs.FS
	dir  string

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when stalls may clear or work completes
	mem       *memWrapper
	imm       []*memWrapper // oldest first
	version   *manifest.Version
	nextFile  uint64
	store     *manifest.Store
	walFile   vfs.File
	wal       *wal.Writer
	snapshots map[kv.SeqNum]int
	busyLevel map[int]bool         // levels currently compacting
	building  map[*memWrapper]bool // immutable buffers being flushed
	closed    bool
	bgErr     error  // first background error; surfaced in Health/stats and on Close
	bgErrOp   string // operation ("flush", "compaction") that produced bgErr

	// compactFailures counts consecutive failed compaction attempts
	// (guarded by db.mu), driving retry backoff and the degradation
	// policy symmetrically with memWrapper.flushFailures.
	compactFailures int

	// degraded, once set, is the sticky read-only mode (health.go):
	// writes fail fast with this error, reads keep serving, background
	// work stops. degradedFlag mirrors it for lock-free fast paths.
	degraded      *DegradedError
	degradedSince int64
	degradedFlag  atomic.Bool

	// walMu serializes WAL appends against WAL rotation. The commit
	// leader acquires it (under db.mu) before pinning db.wal and holds
	// it through the group's buffered append and sync; rotation takes it
	// (also under db.mu) for the file swap. Lock order: mu → walMu.
	walMu sync.Mutex

	// commit is the group-commit pipeline (commit.go): concurrent Apply
	// calls form write groups with one WAL write and one sync per group.
	commit commitPipeline

	// lastSeq is the sequence allocation cursor (highest assigned);
	// visibleSeq is the highest sequence published in commit order.
	// Readers and snapshots use visibleSeq so a batch whose group
	// predecessors are still applying is never observed early — and no
	// sequence hole ever is.
	lastSeq    atomic.Uint64
	visibleSeq atomic.Uint64

	// readState is the pinned-by-readers pairing of memtables and
	// version (readstate.go); nil once closed. tables decides when the
	// table files those states list may die.
	readState atomic.Pointer[readState]
	tables    tableRefs

	bg     sync.WaitGroup
	picker *compaction.Picker
	tcache *tableCache
	bcache *cache.Cache
	vlog   *wisckey.Log

	m metrics.Metrics

	// prof is the live workload profiler (profile.go); nil when
	// Options.DisableProfiler is set. stSink is the engine's statsSink
	// pre-boxed as an interface so the get path can hand it to the
	// profiler's per-level shim without allocating.
	prof   *profiler
	stSink sstable.ReadStats

	// listener receives lifecycle events (nil = disabled); jobIDs pairs
	// the begin/end events of flush, compaction, and checkpoint jobs.
	listener events.Listener
	jobIDs   atomic.Uint64

	// tracer, when non-nil, mints per-operation spans (trace.go methods
	// GetTraced/ApplyTraced carry wire-propagated ids into them). The
	// nil fast path is one pointer compare per operation.
	tracer *trace.Tracer

	// timeOps gates the per-operation latency histograms (Get, Put,
	// Scan-next). Clock reads cost ~100ns per op — real money against a
	// memtable hit — so they run only when observability is on: a
	// listener attached or Options.RecordLatencies set. Background-job
	// histograms (flush, compaction) are always on; their once-per-job
	// cost is noise.
	timeOps bool
}

// emit delivers one event to the configured listener, stamping the
// engine clock. With no listener the cost is a single nil check, so the
// hot paths pay nothing when observability is off.
func (db *DB) emit(e events.Event) {
	if db.listener == nil {
		return
	}
	e.TimeNs = db.opts.NowNs()
	db.listener.Notify(e)
}

// nextJobID allocates an ID shared by one job's begin and end events.
func (db *DB) nextJobID() uint64 { return db.jobIDs.Add(1) }

// statsSink adapts metrics to the sstable.ReadStats and cache.Stats
// interfaces.
type statsSink struct{ m *metrics.Metrics }

func (s statsSink) FilterProbe(negative bool) {
	s.m.FilterProbes.Add(1)
	if negative {
		s.m.FilterNegatives.Add(1)
	}
}

func (s statsSink) BlockRead(cached bool) {
	s.m.BlockReads.Add(1)
	if cached {
		s.m.BlockReadsCached.Add(1)
	}
}

func (s statsSink) CacheAccess(hit bool) {
	if hit {
		s.m.CacheHits.Add(1)
	} else {
		s.m.CacheMisses.Add(1)
	}
}

// tracedSink fans read-path events out to both the engine metrics and
// one operation's span, replacing the readers' baked-in statsSink for
// the duration of a traced lookup. It exists per traced operation only,
// so untraced reads allocate nothing.
type tracedSink struct {
	m  *metrics.Metrics
	sp *trace.Span
}

func (s *tracedSink) FilterProbe(negative bool) {
	statsSink{s.m}.FilterProbe(negative)
	s.sp.FilterProbe(negative)
}

func (s *tracedSink) BlockRead(cached bool) {
	statsSink{s.m}.BlockRead(cached)
	s.sp.BlockRead(cached)
}

// Tracer returns the tracer this DB was opened with (nil when tracing
// is disabled). The serving layer uses it to span wire requests whose
// engine entry points it drives directly.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// Open opens (creating if necessary) a database at opts.Path and
// recovers any committed state and WAL tail.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.FS == nil {
		return nil, errors.New("lsm: Options.FS is required")
	}
	if err := opts.FS.MkdirAll(opts.Path); err != nil {
		return nil, err
	}
	db := &DB{
		opts:      opts,
		fs:        opts.FS,
		dir:       opts.Path,
		snapshots: make(map[kv.SeqNum]int),
		busyLevel: make(map[int]bool),
		building:  make(map[*memWrapper]bool),
		listener:  opts.EventListener,
		tracer:    opts.Tracer,
		timeOps:   opts.EventListener != nil || opts.RecordLatencies,
	}
	db.cond = sync.NewCond(&db.mu)
	db.commit.init()
	db.tables = tableRefs{db: db, count: make(map[uint64]int), dropped: make(map[uint64]bool)}
	db.stSink = statsSink{&db.m}
	if !opts.DisableProfiler {
		db.prof = newProfiler(&db.m, opts.NumLevels, opts.ProfileWindowOps)
	}
	if opts.CacheBytes > 0 {
		db.bcache = cache.New(opts.CacheBytes)
		db.bcache.SetStats(statsSink{&db.m})
	}
	db.tcache = newTableCache(db.fs, db.dir, func(fileNum uint64) sstable.ReaderOptions {
		var bc sstable.BlockCache
		if db.bcache != nil {
			bc = db.bcache
		}
		return sstable.ReaderOptions{FileNum: fileNum, Cache: bc, Stats: statsSink{&db.m}}
	})
	db.picker = compaction.NewPicker(compaction.Options{
		NumLevels:               opts.NumLevels,
		SizeRatio:               opts.SizeRatio,
		BaseLevelBytes:          opts.BaseLevelBytes,
		Layout:                  opts.Layout,
		Granularity:             opts.Granularity,
		MovePolicy:              opts.MovePolicy,
		TombstoneAgeThresholdNs: int64(opts.TombstoneAgeThreshold),
		NowNs:                   opts.NowNs,
	})

	// Recover the manifest.
	store, state, err := manifest.OpenStore(db.fs, vfs.Join(db.dir, "MANIFEST"))
	if err != nil {
		return nil, err
	}
	db.store = store
	if state != nil {
		db.version = state.Version
		// Tolerate a NumLevels increase across restarts.
		for len(db.version.Levels) < opts.NumLevels {
			db.version.Levels = append(db.version.Levels, &manifest.Level{})
		}
		db.nextFile = state.NextFileNum
		db.lastSeq.Store(uint64(state.LastSeq))
	} else {
		db.version = manifest.NewVersion(opts.NumLevels)
		db.nextFile = 1
	}

	if opts.ValueSeparationThreshold > 0 {
		vl, err := wisckey.Open(db.fs, db.dir)
		if err != nil {
			return nil, err
		}
		db.vlog = vl
	}

	// Delete orphaned table files (outputs of a crashed compaction).
	db.removeOrphans()

	// Replay WAL segments in order, then start a fresh segment.
	if err := db.recoverWALs(); err != nil {
		return nil, err
	}
	// A fresh store starts its sequence space at 1, never 0: sequence 0
	// is the "read at latest" sentinel throughout the read path, so a
	// snapshot of an empty store (visibleSeq 0) would silently degrade
	// into a live view — which breaks the cross-shard snapshot vector,
	// whose consistency depends on every captured watermark staying
	// fixed.
	db.lastSeq.CompareAndSwap(0, 1)
	db.visibleSeq.Store(db.lastSeq.Load())
	if err := db.newMemtable(); err != nil {
		return nil, err
	}

	for i := 0; i < opts.Workers; i++ {
		// With two or more workers, the first is dedicated to flushes
		// (RocksDB's separate flush pool): ingestion never queues behind
		// a long compaction (§2.2.5, and SILK's flush-priority insight).
		flushOnly := i == 0 && opts.Workers > 1
		db.bg.Add(1)
		go db.worker(flushOnly)
	}
	db.maybeScheduleWork()
	return db, nil
}

// removeOrphans deletes .sst files not referenced by the recovered
// version.
func (db *DB) removeOrphans() {
	live := db.version.LiveFileNums()
	names, err := db.fs.List(db.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		num, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
		if err != nil || live[num] {
			continue
		}
		db.fs.Remove(vfs.Join(db.dir, name))
	}
}

// recoverWALs replays every WAL segment into memtables and flushes them
// synchronously, so recovery leaves no volatile state.
func (db *DB) recoverWALs() error {
	names, err := db.fs.List(db.dir)
	if err != nil {
		return err
	}
	var nums []uint64
	for _, name := range names {
		if !strings.HasSuffix(name, ".wal") {
			continue
		}
		num, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err == nil {
			nums = append(nums, num)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, num := range nums {
		f, err := db.fs.Open(vfs.Join(db.dir, manifest.WALName(num)))
		if err != nil {
			return err
		}
		mw := &memWrapper{mt: memtable.New(db.opts.MemtableKind)}
		err = wal.Replay(f, func(b wal.Batch) error {
			seq := b.Seq
			for _, op := range b.Ops {
				switch op.Kind {
				case kv.KindRangeDelete:
					mw.addRangeDel(kv.RangeTombstone{Start: op.Key, End: op.Value, Seq: seq})
				default:
					mw.mt.Add(seq, op.Kind, op.Key, op.Value)
				}
				seq++
			}
			if uint64(seq-1) > db.lastSeq.Load() {
				db.lastSeq.Store(uint64(seq - 1))
			}
			return nil
		})
		f.Close()
		if err != nil {
			return err
		}
		if mw.mt.Len() > 0 || len(mw.rangeTombstones()) > 0 {
			if err := db.flushMemtable(mw); err != nil {
				return err
			}
		}
		db.fs.Remove(vfs.Join(db.dir, manifest.WALName(num)))
	}
	return nil
}

// newMemtable installs a fresh mutable buffer and its WAL segment.
// Callers must not hold db.mu.
func (db *DB) newMemtable() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.newMemtableLocked(); err != nil {
		return err
	}
	db.publishReadStateLocked()
	return nil
}

func (db *DB) newMemtableLocked() error {
	mw := &memWrapper{mt: memtable.New(db.opts.MemtableKind)}
	if !db.opts.DisableWAL {
		num := db.nextFile
		db.nextFile++
		f, err := db.fs.Create(vfs.Join(db.dir, manifest.WALName(num)))
		if err != nil {
			return err
		}
		db.walFile = f
		db.wal = wal.NewWriter(f)
		mw.walNum = num
		db.emit(events.Event{Type: events.WALRotated, Path: manifest.WALName(num)})
	}
	db.mem = mw
	return nil
}

// allocFileNum must be called with db.mu held.
func (db *DB) allocFileNum() uint64 {
	n := db.nextFile
	db.nextFile++
	return n
}

// commitLocked persists the current structural state. Callers hold
// db.mu.
func (db *DB) commitLocked() error {
	st := &manifest.State{
		Version:     db.version,
		NextFileNum: db.nextFile,
		LastSeq:     kv.SeqNum(db.lastSeq.Load()),
	}
	if err := db.store.Commit(st); err != nil {
		return err
	}
	if db.opts.Paranoid {
		if err := db.version.Check(); err != nil {
			return fmt.Errorf("lsm: version invariant violated: %w", err)
		}
	}
	return nil
}

// filterBitsForRun computes the bits-per-key for a new run landing at
// level, holding approximately newEntries entries.
//
// Monkey mode allocates the budget against the tree's *configured*
// shape — the expected entry capacity of every run at every level —
// rather than the transient current contents, exactly as Monkey sizes
// filters from the design (T, layout, buffer size). This keeps the
// per-level assignment stable across flushes and the total spend within
// budget once the tree fills.
func (db *DB) filterBitsForRun(v *manifest.Version, level int) float64 {
	switch db.opts.FilterMode {
	case FilterNone:
		return 0
	case FilterUniform:
		return db.opts.BitsPerKey
	}
	// Average entry size from the live tree (fallback for an empty one).
	avg := int64(80)
	if files, bytes := int64(v.TotalFiles()), int64(v.TotalSize()); files > 0 && bytes > 0 {
		var entries int64
		for _, l := range v.Levels {
			for _, r := range l.Runs {
				entries += int64(r.NumEntries())
			}
		}
		if entries > 0 {
			avg = bytes / entries
			if avg < 16 {
				avg = 16
			}
		}
	}
	popts := db.picker.Options()
	var counts []int64
	runIdxForLevel := make([]int, db.opts.NumLevels)
	for lvl := 0; lvl < db.opts.NumLevels; lvl++ {
		runIdxForLevel[lvl] = len(counts)
		runCap := db.opts.Layout.RunCapacity(lvl, db.opts.NumLevels)
		var perRun int64
		if lvl == 0 {
			perRun = int64(db.opts.BufferBytes) / avg
		} else {
			perRun = int64(popts.LevelCapacityBytes(lvl)) / avg / int64(runCap)
		}
		if perRun < 1 {
			perRun = 1
		}
		for r := 0; r < runCap; r++ {
			counts = append(counts, perRun)
		}
	}
	bits := bloom.Allocate(counts, db.opts.FilterBudgetBits)
	return bits[runIdxForLevel[level]]
}

// maybeScheduleWork wakes the background workers; they park on the
// shared condition variable, so a broadcast can never be lost the way a
// bounded token channel could.
func (db *DB) maybeScheduleWork() {
	db.cond.Broadcast()
}

// worker executes flushes (priority) and compactions until close.
// flushOnly workers never start compactions, so a flush slot is always
// available when Workers > 1 (a dedicated flush pool).
func (db *DB) worker(flushOnly bool) {
	defer db.bg.Done()
	db.mu.Lock()
	defer db.mu.Unlock()
	for !db.closed {
		// A degraded engine initiates no background work: the device is
		// suspect and writes are already refused, so workers park until
		// close.
		if db.degraded != nil {
			db.cond.Wait()
			continue
		}
		// Flushes first: they unblock writers. Multiple workers may
		// build flushes concurrently; installation is serialized in
		// queue order so level-0 run recency stays correct.
		var flushTarget *memWrapper
		for _, mw := range db.imm {
			if !db.building[mw] {
				flushTarget = mw
				break
			}
		}
		if flushTarget != nil {
			db.building[flushTarget] = true
			backoff := retryBackoff(flushTarget.flushFailures)
			db.mu.Unlock()
			if backoff > 0 {
				time.Sleep(backoff)
			}
			err := db.flushMemtable(flushTarget)
			db.mu.Lock()
			delete(db.building, flushTarget)
			if err != nil {
				flushTarget.flushFailures++
				db.noteBackgroundFailure("flush", flushTarget.flushFailures, err)
			} else {
				flushTarget.flushFailures = 0
			}
			db.cond.Broadcast()
			continue
		}
		if !flushOnly {
			if job := db.pickUnlockedJob(); job != nil {
				for lvl := range job.Inputs {
					db.busyLevel[lvl] = true
				}
				db.busyLevel[job.ToLevel] = true
				rs, _ := db.loadReadState() // open while the loop runs
				backoff := retryBackoff(db.compactFailures)
				db.mu.Unlock()
				if backoff > 0 {
					time.Sleep(backoff)
				}
				err := db.runCompaction(job, rs)
				db.mu.Lock()
				for lvl := range job.Inputs {
					delete(db.busyLevel, lvl)
				}
				delete(db.busyLevel, job.ToLevel)
				if err != nil {
					db.compactFailures++
					db.noteBackgroundFailure("compaction", db.compactFailures, err)
				} else {
					db.compactFailures = 0
				}
				db.cond.Broadcast()
				continue
			}
		}
		db.cond.Wait()
	}
}

// retryBackoff is the capped exponential backoff between retries of a
// failing background job: 10ms doubling per consecutive failure, at
// most one second, so a flapping device is retried politely and a dead
// one cannot spin a worker at full speed before degradation kicks in.
func retryBackoff(failures int) time.Duration {
	if failures <= 0 {
		return 0
	}
	if failures > 7 { // 10ms << 7 > 1s; avoid shift overflow
		return time.Second
	}
	d := 10 * time.Millisecond << (failures - 1)
	if d > time.Second {
		d = time.Second
	}
	return d
}

// pickUnlockedJob returns the highest-priority compaction job that does
// not touch a busy level, so concurrent workers take disjoint work.
// Callers hold db.mu.
func (db *DB) pickUnlockedJob() *compaction.Job {
	return db.picker.PickExcluding(db.version, func(level int) bool {
		return db.busyLevel[level]
	})
}

// waitIdle blocks until no background work is pending. Used by tests
// and experiments for deterministic measurement.
func (db *DB) waitIdle() {
	db.mu.Lock()
	for {
		idle := len(db.imm) == 0 && len(db.building) == 0 && len(db.busyLevel) == 0 &&
			db.pickUnlockedJob() == nil
		// A degraded engine counts as idle: workers are parked and the
		// pending queue will never drain, so waiting would hang forever.
		if idle || db.closed || db.degraded != nil {
			db.mu.Unlock()
			return
		}
		db.maybeScheduleWork()
		db.cond.Wait()
	}
}

// WaitIdle flushes nothing but blocks until queued background work has
// drained. Deterministic experiments call it before measuring.
func (db *DB) WaitIdle() { db.waitIdle() }

// Metrics returns a snapshot of the engine counters.
func (db *DB) Metrics() metrics.Snapshot { return db.m.Snapshot() }

// Latencies returns a snapshot of the per-operation latency histograms
// (Get, Put, Scan-next, flush, compaction).
func (db *DB) Latencies() metrics.LatencySnapshot { return db.m.Latencies() }

// DiskUsageBytes reports the live table bytes (the numerator of space
// amplification).
func (db *DB) DiskUsageBytes() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	total := db.version.TotalSize()
	if db.vlog != nil {
		total += uint64(db.vlog.DiskBytes())
	}
	return total
}

// Version returns the current tree structure (immutable; safe to read).
func (db *DB) Version() *manifest.Version {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.version
}

// Flush forces the mutable memtable to disk and waits for it.
func (db *DB) Flush() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if err := db.degradedErrLocked(); err != nil {
		// Read-only: flushing would write; fail fast with the cause.
		db.mu.Unlock()
		return err
	}
	if db.mem.mt.Len() > 0 || len(db.mem.rangeTombstones()) > 0 {
		if err := db.rotateMemtableLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	db.waitIdle()
	db.mu.Lock()
	err := db.degradedErrLocked()
	if err == nil {
		err = db.bgErr
	}
	db.mu.Unlock()
	return err
}

// Compact runs a full manual compaction into the last level.
func (db *DB) Compact() error {
	if err := db.Flush(); err != nil {
		return err
	}
	db.mu.Lock()
	for len(db.building) > 0 || len(db.busyLevel) > 0 {
		db.cond.Wait()
	}
	// Pick only once no other job runs, so the inputs are those of the
	// state pinned below.
	job := db.picker.ManualJob(db.version)
	if job == nil || db.closed {
		db.mu.Unlock()
		return nil
	}
	rs, _ := db.loadReadState() // open, checked above
	for lvl := range job.Inputs {
		db.busyLevel[lvl] = true
	}
	db.busyLevel[job.ToLevel] = true
	db.mu.Unlock()

	err := db.runCompaction(job, rs)

	db.mu.Lock()
	for lvl := range job.Inputs {
		delete(db.busyLevel, lvl)
	}
	delete(db.busyLevel, job.ToLevel)
	db.cond.Broadcast()
	db.mu.Unlock()
	db.waitIdle()
	return err
}

// Close flushes the mutable buffer, waits for background work, commits
// the manifest, and releases every resource. The first background error
// (if any) is returned.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.mu.Unlock()

	flushErr := db.Flush()

	db.mu.Lock()
	db.closed = true
	last := db.readState.Swap(nil)
	db.cond.Broadcast()
	db.mu.Unlock()
	if last != nil {
		last.unref()
	}
	db.bg.Wait()

	db.mu.Lock()
	defer db.mu.Unlock()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(flushErr)
	keep(db.bgErr)
	keep(db.commitLocked())
	keep(db.store.Close())
	if db.walFile != nil {
		keep(db.walFile.Close())
		// The buffer was flushed; its (empty) WAL segment is garbage.
		if db.mem != nil && db.mem.walNum != 0 {
			db.fs.Remove(vfs.Join(db.dir, manifest.WALName(db.mem.walNum)))
		}
	}
	if db.vlog != nil {
		keep(db.vlog.Close())
	}
	db.tcache.close()
	return firstErr
}
