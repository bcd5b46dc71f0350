package core

import (
	"sync"
	"sync/atomic"

	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
)

// readState is one immutable pairing of the read sources: the memtables
// (the mutable buffer, then the immutable queue newest first) and the
// tree version. A new state is published under db.mu whenever either
// part changes; every reader of table files pins the current state and
// reads only what it lists. A table stays on disk and openable while any
// pinned state lists it (tutorial §2.1.1 C/D: immutable files,
// garbage-collected once nothing references them), so no read path has
// to cope with a table vanishing under it.
type readState struct {
	db      *DB
	refs    atomic.Int32
	mems    []*memWrapper
	version *manifest.Version
}

// loadReadState pins the current read state; the caller must unref it.
// It fails only once the store is closed. The current state always
// holds its publisher's reference, so a count found at zero belongs to
// a state already replaced, and reloading the pointer finds its
// successor. Under db.mu no publish can intervene, so the state pinned
// is exactly {db.mem, db.imm, db.version}.
func (db *DB) loadReadState() (*readState, error) {
	for {
		s := db.readState.Load()
		if s == nil {
			return nil, ErrClosed
		}
		if n := s.refs.Load(); n > 0 && s.refs.CompareAndSwap(n, n+1) {
			return s, nil
		}
	}
}

// unref releases one pin. The last release unreferences the state's
// tables, which lets the ones a committed manifest dropped die.
func (s *readState) unref() {
	if s.refs.Add(-1) == 0 {
		s.db.tables.unref(s.version)
	}
}

// publishReadStateLocked installs a state for the current memtables and
// version. Callers hold db.mu and call it after every change to db.mem,
// db.imm or db.version. Nothing is published during recovery (no
// buffer exists yet, and no reader can run) or after Close.
func (db *DB) publishReadStateLocked() {
	if db.mem == nil || db.closed {
		return
	}
	mems := make([]*memWrapper, 0, len(db.imm)+1)
	mems = append(mems, db.mem)
	for i := len(db.imm) - 1; i >= 0; i-- {
		mems = append(mems, db.imm[i])
	}
	s := &readState{db: db, mems: mems, version: db.version}
	s.refs.Store(1)
	db.tables.ref(s.version)
	if old := db.readState.Swap(s); old != nil {
		old.unref()
	}
}

// tableRefs decides when a table file dies. It counts, per file, the
// read states that list it, and remembers the files a committed
// manifest has dropped. A dropped file dies once no state lists it: its
// reader closes, its blocks leave the cache, and unless it was
// quarantined it is removed. A manifest commit that fails drops
// nothing, so the files it would have replaced stay.
type tableRefs struct {
	db *DB

	mu      sync.Mutex
	count   map[uint64]int
	dropped map[uint64]bool // file → keep it on disk (quarantined)
}

type deadTable struct {
	num  uint64
	keep bool
}

func (t *tableRefs) ref(v *manifest.Version) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range v.Levels {
		for _, r := range l.Runs {
			for _, f := range r.Files {
				t.count[f.Num]++
			}
		}
	}
}

func (t *tableRefs) unref(v *manifest.Version) {
	var dead []deadTable
	t.mu.Lock()
	for _, l := range v.Levels {
		for _, r := range l.Runs {
			for _, f := range r.Files {
				if t.count[f.Num]--; t.count[f.Num] > 0 {
					continue
				}
				delete(t.count, f.Num)
				if keep, ok := t.dropped[f.Num]; ok {
					delete(t.dropped, f.Num)
					dead = append(dead, deadTable{f.Num, keep})
				}
			}
		}
	}
	t.mu.Unlock()
	t.bury(dead)
}

// drop marks tables a committed manifest no longer lists (or a
// quarantine removed, keep set); each dies at once when no state lists
// it, otherwise on the last unref.
func (t *tableRefs) drop(nums []uint64, keep bool) {
	var dead []deadTable
	t.mu.Lock()
	for _, num := range nums {
		if t.count[num] == 0 {
			dead = append(dead, deadTable{num, keep})
		} else {
			t.dropped[num] = keep
		}
	}
	t.mu.Unlock()
	t.bury(dead)
}

func (t *tableRefs) bury(dead []deadTable) {
	db := t.db
	for _, d := range dead {
		db.tcache.drop(d.num)
		if db.bcache != nil {
			db.bcache.EvictFile(d.num)
		}
		if !d.keep {
			db.fs.Remove(vfs.Join(db.dir, manifest.FileName(d.num)))
		}
	}
}
