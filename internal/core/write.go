package core

import (
	"errors"
	"fmt"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/bloom"
	"lsmlab/internal/events"
	"lsmlab/internal/kv"
	"lsmlab/internal/trace"
	"lsmlab/internal/wal"
)

// Batch is an atomic group of writes applied with consecutive sequence
// numbers. Keys and values are copied into an internal arena that Reset
// retains, so a batch reused across a write loop reaches a steady state
// of zero allocations per operation.
type Batch struct {
	ops   []wal.Op
	arena []byte // append-only byte arena backing the copied keys/values
}

// batchArenaMin is the smallest arena block allocated once a batch
// copies its first bytes.
const batchArenaMin = 1024

// copyBytes appends p to the arena and returns the stable copy. When
// the current block is full a larger one is allocated; earlier blocks
// stay alive through the op slices that reference them, so previously
// returned copies are never invalidated.
func (b *Batch) copyBytes(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	if cap(b.arena)-len(b.arena) < len(p) {
		n := 2 * cap(b.arena)
		if n < batchArenaMin {
			n = batchArenaMin
		}
		if n < len(p) {
			n = len(p)
		}
		b.arena = make([]byte, 0, n)
	}
	off := len(b.arena)
	b.arena = append(b.arena, p...)
	return b.arena[off:len(b.arena):len(b.arena)]
}

// Put records an insertion or update.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, wal.Op{Kind: kv.KindSet, Key: b.copyBytes(key), Value: b.copyBytes(value)})
}

// Delete records a point tombstone.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, wal.Op{Kind: kv.KindDelete, Key: b.copyBytes(key)})
}

// SingleDelete records a single-delete tombstone (for keys written at
// most once since the last delete; tutorial §2.3.3, [101]).
func (b *Batch) SingleDelete(key []byte) {
	b.ops = append(b.ops, wal.Op{Kind: kv.KindSingleDelete, Key: b.copyBytes(key)})
}

// DeleteRange records a range tombstone covering [start, end).
func (b *Batch) DeleteRange(start, end []byte) {
	b.ops = append(b.ops, wal.Op{Kind: kv.KindRangeDelete, Key: b.copyBytes(start), Value: b.copyBytes(end)})
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse, retaining the op slice and the
// current arena block.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.arena = b.arena[:0]
}

// EachOp calls fn for every operation in the batch, in insertion order.
// The key and value slices alias the batch's arena and stay valid until
// the next Reset. The partition router uses it to fan a batch out into
// per-shard sub-batches.
func (b *Batch) EachOp(fn func(kind kv.Kind, key, value []byte)) {
	for i := range b.ops {
		fn(b.ops[i].Kind, b.ops[i].Key, b.ops[i].Value)
	}
}

// AddOp appends one operation of the given kind — the generalized form
// of Put/Delete/SingleDelete/DeleteRange, letting a router replay ops
// observed via EachOp without a per-kind switch. For KindRangeDelete
// the key is the inclusive start and the value the exclusive end.
func (b *Batch) AddOp(kind kv.Kind, key, value []byte) {
	b.ops = append(b.ops, wal.Op{Kind: kind, Key: b.copyBytes(key), Value: b.copyBytes(value)})
}

func cp(b []byte) []byte { return append([]byte(nil), b...) }

// Put inserts or updates one key.
func (db *DB) Put(key, value []byte) error {
	var b Batch
	b.Put(key, value)
	return db.Apply(&b)
}

// Delete removes a key via a tombstone.
func (db *DB) Delete(key []byte) error {
	var b Batch
	b.Delete(key)
	return db.Apply(&b)
}

// SingleDelete removes a key that was written exactly once.
func (db *DB) SingleDelete(key []byte) error {
	var b Batch
	b.SingleDelete(key)
	return db.Apply(&b)
}

// DeleteRange removes every key in [start, end).
func (db *DB) DeleteRange(start, end []byte) error {
	var b Batch
	b.DeleteRange(start, end)
	return db.Apply(&b)
}

// Apply atomically applies a batch: one WAL record, consecutive
// sequence numbers, all-or-nothing visibility within the memtable.
//
// Concurrent Apply calls flow through the group-commit pipeline
// (commit.go): one leader writes and syncs the whole group's WAL
// records, the members insert into the memtable concurrently, and the
// batch becomes visible — and Apply returns — once the visibleSeq
// watermark passes it in commit order.
func (db *DB) Apply(b *Batch) error { return db.apply(b, 0) }

// ApplyTraced is Apply carrying a wire-propagated trace id: the commit's
// span adopts the id (0 mints a fresh one) and is always retained in the
// tracer's ring. Without a tracer it behaves exactly like Apply.
func (db *DB) ApplyTraced(b *Batch, traceID uint64) error { return db.apply(b, traceID) }

func (db *DB) apply(b *Batch, traceID uint64) error {
	if len(b.ops) == 0 {
		return nil
	}
	// A replica refuses external writes outright; shipped batches and
	// anti-entropy repairs enter through replica.go instead.
	if db.opts.Replica {
		return ErrReplica
	}
	// Degraded mode fails writes fast — before value-log diversion, so
	// a read-only engine appends nothing anywhere. The check is one
	// atomic load on the healthy path.
	if err := db.degradedErr(); err != nil {
		return err
	}
	// Commit latency includes any stall time spent in makeRoomLocked —
	// the tail a caller actually observes.
	if db.timeOps {
		start := db.opts.NowNs()
		defer func() { db.m.PutNs.RecordSince(start, db.opts.NowNs()) }()
	}
	if db.prof != nil {
		for i := range b.ops {
			h := bloom.Hash64(b.ops[i].Key)
			if !db.prof.tick(h) {
				continue
			}
			op := profPut
			if b.ops[i].Kind != kv.KindSet && b.ops[i].Kind != kv.KindMerge {
				op = profDelete
			}
			db.prof.observe(op, h, b.ops[i].Key)
		}
	}
	var sp *trace.Span
	if db.tracer != nil {
		op := trace.OpBatch
		if len(b.ops) == 1 {
			op = trace.OpPut
		}
		sp = db.tracer.StartID(op, traceID)
		if sp != nil { // head sampling may have declined this op
			if traceID != 0 {
				sp.Retain() // explicitly requested over the wire
			}
			defer db.tracer.Finish(sp)
			sp.AddEntries(len(b.ops))
			sp.SetTenant(admission.TenantOf(b.ops[0].Key))
			var bytes int64
			for i := range b.ops {
				bytes += int64(len(b.ops[i].Key) + len(b.ops[i].Value))
			}
			sp.AddBytes(bytes)
		}
	}

	// WiscKey: divert large values to the value log before WAL framing
	// so that recovery replays pointers (the value bytes are already
	// durable in the log). The value log is internally synchronized, so
	// diversion runs before the pipeline, outside every engine lock.
	ops := b.ops
	if db.vlog != nil && db.opts.ValueSeparationThreshold > 0 {
		var t0 int64
		if sp != nil {
			t0 = db.opts.NowNs()
		}
		ops = make([]wal.Op, len(b.ops))
		copy(ops, b.ops)
		for i := range ops {
			if ops[i].Kind == kv.KindSet && len(ops[i].Value) >= db.opts.ValueSeparationThreshold {
				p, err := db.vlog.Append(ops[i].Key, ops[i].Value)
				if err != nil {
					sp.SetErr(err)
					return err
				}
				ops[i].Kind = kv.KindValuePointer
				ops[i].Value = p.Encode()
			}
		}
		if sp != nil {
			sp.StageSince("vlog", t0, db.opts.NowNs())
		}
	}

	var tCommit int64
	if sp != nil {
		tCommit = db.opts.NowNs()
	}
	req := &commitRequest{userOps: b.ops, ops: ops, donePub: make(chan struct{})}
	if db.commit.enqueue(req) {
		db.commitLead(req)
	} else {
		<-req.wake
		if req.isLeader {
			db.commitLead(req)
		}
	}
	if !req.registered {
		// The group failed before sequence assignment (stall abort or
		// background error); nothing to apply or publish.
		sp.AddStallNs(req.stallNs)
		sp.SetErr(req.err)
		return req.err
	}
	var tApply int64
	if sp != nil {
		tApply = db.opts.NowNs()
		sp.StageSince("commit", tCommit, tApply)
		sp.AddStallNs(req.stallNs)
		sp.SetBatches(req.groupN)
	}
	if req.err == nil {
		db.applyToMem(req)
	}
	req.mem.writers.Done()
	var tPub int64
	if sp != nil {
		tPub = db.opts.NowNs()
		sp.StageSince("apply", tApply, tPub)
	}
	db.commit.publish(db, req)
	if sp != nil {
		now := db.opts.NowNs()
		sp.StageSince("publish", tPub, now)
		// Commit wait is everything spent in the pipeline — WAL group
		// write plus ordered publish — as the caller observed it.
		sp.AddCommitWaitNs(now - tCommit - (tPub - tApply))
	}
	if req.err != nil {
		sp.SetErr(req.err)
		return req.err
	}

	// Rotate a full buffer only while the immutable queue has room;
	// otherwise leave it over-full and let the next write stall in
	// makeRoomLocked until a flush completes.
	if req.mem.mt.ApproximateBytes() >= db.opts.BufferBytes {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.mem == req.mem && db.mem.mt.ApproximateBytes() >= db.opts.BufferBytes &&
			len(db.imm) < db.opts.MaxImmutableBuffers {
			return db.rotateMemtableLocked()
		}
	}
	return nil
}

// ErrBackpressure is the sentinel for writes aborted by the stall
// timeout: the engine could not make room within Options.StallTimeout,
// so instead of blocking indefinitely the write fails fast — before
// sequence assignment and WAL append, so nothing of it is durable.
// Errors returned on this path satisfy errors.Is(err, ErrBackpressure)
// and are a *BackpressureError carrying the stall cause and duration.
var ErrBackpressure = errors.New("lsm: write backpressure (stall timeout exceeded)")

// BackpressureError is the typed error of a stall-timeout abort.
type BackpressureError struct {
	Reason   string // stall cause: "immutable-buffers" or "l0-runs"
	WaitedNs int64  // how long the writer was blocked before aborting
}

// Error implements error.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("lsm: write backpressure: stalled %dms on %s (stall timeout exceeded)",
		e.WaitedNs/1e6, e.Reason)
}

// Is reports true for ErrBackpressure, so errors.Is(err,
// ErrBackpressure) identifies stall-timeout aborts — including through
// the errors.Join of a multi-shard apply — without manual unwrapping.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// makeRoomLocked enforces the write stalls of tutorial §2.2.1/§2.2.3:
// writers wait when the immutable-buffer queue is full or level 0 has
// accumulated too many runs. One stall event is counted per blocked
// write, with the full blocked duration metered. With
// Options.StallTimeout set, a writer blocked that long aborts with a
// *BackpressureError instead of waiting forever; the Begin/End event
// pairing and StallNs accounting hold on every exit path (success,
// degradation, close, timeout), which the race-enabled regression test
// TestStallAbortPairsEvents pins down.
func (db *DB) makeRoomLocked() (stallNs int64, err error) {
	stalled := false
	var stallStart int64
	var deadline *time.Timer
	defer func() {
		if deadline != nil {
			deadline.Stop()
		}
		if stalled {
			stallNs = db.opts.NowNs() - stallStart
			db.m.StallNs.Add(stallNs)
			db.emit(events.Event{Type: events.WriteStallEnd, DurationNs: stallNs})
		}
	}()
	for {
		l0Stall := db.opts.StallL0Runs > 0 && len(db.version.Levels[0].Runs) >= db.opts.StallL0Runs
		switch {
		case db.closed:
			return 0, ErrClosed
		case db.degraded != nil:
			// Degradation mid-stall: the flush that would have made room
			// is never coming, so blocked writers fail with the cause
			// (degradeLocked broadcast the condition variable).
			return 0, db.degradedErrLocked()
		case l0Stall,
			db.mem.mt.ApproximateBytes() >= db.opts.BufferBytes &&
				len(db.imm) >= db.opts.MaxImmutableBuffers:
			cause := "immutable-buffers"
			if l0Stall {
				cause = "l0-runs"
			}
			if !stalled {
				stalled = true
				stallStart = db.opts.NowNs()
				db.m.WriteStalls.Add(1)
				db.emit(events.Event{Type: events.WriteStallBegin, Reason: cause})
				if db.opts.StallTimeout > 0 {
					// Guarantee a wakeup at the deadline: background
					// progress may never signal the condition variable
					// (that is exactly the overload case), so the abort
					// must not depend on it.
					deadline = time.AfterFunc(db.opts.StallTimeout, db.cond.Broadcast)
				}
			}
			if db.opts.StallTimeout > 0 &&
				db.opts.NowNs()-stallStart >= int64(db.opts.StallTimeout) {
				db.m.StallAborts.Add(1)
				return 0, &BackpressureError{Reason: cause, WaitedNs: db.opts.NowNs() - stallStart}
			}
			// Background workers were woken when the condition arose;
			// the writer just waits for them to signal progress.
			db.cond.Wait()
		case db.mem.mt.ApproximateBytes() < db.opts.BufferBytes:
			return 0, nil
		default:
			return 0, db.rotateMemtableLocked()
		}
	}
}

// rotateMemtableLocked retires the mutable buffer to the immutable
// queue and installs a fresh one (and WAL segment). Callers hold db.mu;
// the WAL file swap additionally takes db.walMu so it cannot interleave
// with a commit group's buffered append (commit.go pins db.wal under
// both locks before appending).
func (db *DB) rotateMemtableLocked() error {
	if db.mem.mt.Len() == 0 && len(db.mem.rangeTombstones()) == 0 {
		return nil
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	// Seal the active WAL before anything moves: the buffer's frames must
	// be durable before the flusher can own (and later delete) them.
	if db.walFile != nil {
		if err := db.walFile.Sync(); err != nil {
			return err
		}
	}
	// Install the replacement buffer and WAL segment BEFORE retiring the
	// full one, so a failed install leaves the rotation un-begun: db.mem
	// unchanged, the sealed WAL still active (acknowledged writes stay
	// durable), and nothing queued. Appending to db.imm first and then
	// erroring out used to strand the buffer in the queue without a
	// broadcast — stalled writers waited on workers that were never woken
	// (found by the crash+fault torture harness).
	old, oldWAL := db.mem, db.walFile
	if err := db.newMemtableLocked(); err != nil {
		return err
	}
	db.imm = append(db.imm, old)
	db.publishReadStateLocked()
	db.maybeScheduleWork()
	if oldWAL != nil {
		return oldWAL.Close()
	}
	return nil
}

// GCValueLog garbage-collects the oldest sealed value-log segment:
// records whose pointer is still the live value of their key are
// re-appended (and their tree pointers refreshed); the segment is then
// deleted. Returns the number of live records moved and whether a
// segment was collected. It is a no-op without value separation.
func (db *DB) GCValueLog() (moved int, collected bool, err error) {
	if db.vlog == nil {
		return 0, false, nil
	}
	start := db.opts.NowNs()
	defer func() {
		db.emit(events.Event{Type: events.VlogGCEnd, MovedRecords: moved,
			Collected: collected, DurationNs: db.opts.NowNs() - start, Err: err})
	}()
	if err := db.vlog.RotateForGC(); err != nil {
		return 0, false, err
	}
	num, ok := db.vlog.OldestSealed()
	if !ok {
		return 0, false, nil
	}
	err = db.vlog.ScanFile(num, func(key, value []byte, p wiscPointer) error {
		live, err := db.pointerIsLive(key, p)
		if err != nil {
			return err
		}
		if !live {
			return nil
		}
		// Re-put through the normal write path: the value lands in the
		// active segment with a fresh pointer.
		if err := db.Put(key, value); err != nil {
			return err
		}
		moved++
		return nil
	})
	if err != nil {
		return moved, false, err
	}
	if err := db.vlog.Remove(num); err != nil {
		return moved, false, err
	}
	return moved, true, nil
}

var errStopScan = errors.New("stop scan")
