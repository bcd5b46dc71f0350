package core

import (
	"errors"
	"fmt"
	"io"

	"lsmlab/internal/events"
	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
)

// Checkpoint writes a consistent, openable copy of the store into dir
// (which must not already contain a store). Immutable files make this
// nearly free of coordination (tutorial §2.1.1 C; immutability [51]):
// the current version is pinned, its table files are copied byte for
// byte, a manifest holding exactly that version is written, and the
// WAL-resident tail is flushed first so the checkpoint needs no log.
//
// The checkpoint is taken online: concurrent writes and compactions
// proceed; the pinned read state keeps its files on disk until they are
// copied, even if a compaction replaces them meanwhile.
func (db *DB) Checkpoint(dir string) (err error) {
	if dir == db.dir {
		return errors.New("lsm: checkpoint directory must differ from the store directory")
	}
	jobID := db.nextJobID()
	start := db.opts.NowNs()
	defer func() {
		db.emit(events.Event{Type: events.CheckpointEnd, JobID: jobID,
			Path: dir, DurationNs: db.opts.NowNs() - start, Err: err})
	}()
	// Flush so the memtable contents are in table files (the checkpoint
	// carries no WAL).
	if err := db.Flush(); err != nil {
		return err
	}

	rs, err := db.loadReadState()
	if err != nil {
		return err
	}
	defer rs.unref()
	v := rs.version
	// Loaded after the pin, the sequence cursor covers every entry in v.
	seq := db.lastSeq.Load()
	var nums []uint64
	for _, l := range v.Levels {
		for _, r := range l.Runs {
			for _, f := range r.Files {
				nums = append(nums, f.Num)
			}
		}
	}

	if err := db.fs.MkdirAll(dir); err != nil {
		return err
	}
	if db.fs.Exists(vfs.Join(dir, "MANIFEST")) {
		return fmt.Errorf("lsm: checkpoint target %s already holds a store", dir)
	}
	for _, num := range nums {
		name := manifest.FileName(num)
		if err := copyFile(db.fs, vfs.Join(db.dir, name), vfs.Join(dir, name)); err != nil {
			return err
		}
	}
	// Value-log segments, when separation is on.
	if db.vlog != nil {
		names, err := db.fs.List(db.dir)
		if err != nil {
			return err
		}
		for _, name := range names {
			if vfs.HasSuffix(name, ".vlog") {
				if err := copyFile(db.fs, vfs.Join(db.dir, name), vfs.Join(dir, name)); err != nil {
					return err
				}
			}
		}
	}

	store, _, err := manifest.OpenStore(db.fs, vfs.Join(dir, "MANIFEST"))
	if err != nil {
		return err
	}
	maxNum := uint64(0)
	for _, n := range nums {
		if n > maxNum {
			maxNum = n
		}
	}
	st := &manifest.State{Version: v, NextFileNum: maxNum + 1, LastSeq: kv.SeqNum(seq)}
	if err := store.Commit(st); err != nil {
		store.Close()
		return err
	}
	return store.Close()
}

func copyFile(fs vfs.FS, src, dst string) error {
	in, err := fs.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	size, err := in.Size()
	if err != nil {
		return err
	}
	out, err := fs.Create(dst)
	if err != nil {
		return err
	}
	buf := make([]byte, 1<<20)
	var off int64
	for off < size {
		n, err := in.ReadAt(buf, off)
		if n > 0 {
			if _, werr := out.Write(buf[:n]); werr != nil {
				out.Close()
				return werr
			}
			off += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			out.Close()
			return err
		}
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
