package core

import (
	"sync"

	"lsmlab/internal/manifest"
	"lsmlab/internal/sstable"
	"lsmlab/internal/vfs"
)

// tableCache keeps one open sstable reader per table file: opened on
// first use, closed when the file dies (tableRefs). Callers only ask for
// files listed by a read state they pinned, which keeps each file alive
// for as long as they use its reader.
type tableCache struct {
	fs    vfs.FS
	dir   string
	ropts func(fileNum uint64) sstable.ReaderOptions

	mu      sync.RWMutex
	readers map[uint64]*sstable.Reader
}

func newTableCache(fs vfs.FS, dir string, ropts func(uint64) sstable.ReaderOptions) *tableCache {
	return &tableCache{fs: fs, dir: dir, ropts: ropts, readers: make(map[uint64]*sstable.Reader)}
}

// get returns the reader for fileNum, opening it on first use.
func (tc *tableCache) get(fileNum uint64) (*sstable.Reader, error) {
	tc.mu.RLock()
	r := tc.readers[fileNum]
	tc.mu.RUnlock()
	if r != nil {
		return r, nil
	}

	// Open outside the lock; racing opens are reconciled below.
	f, err := tc.fs.Open(vfs.Join(tc.dir, manifest.FileName(fileNum)))
	if err != nil {
		return nil, err
	}
	r, err = sstable.Open(f, tc.ropts(fileNum))
	if err != nil {
		f.Close()
		return nil, err
	}

	tc.mu.Lock()
	if cur := tc.readers[fileNum]; cur != nil {
		tc.mu.Unlock()
		r.Close()
		return cur, nil
	}
	tc.readers[fileNum] = r
	tc.mu.Unlock()
	return r, nil
}

// drop closes the reader of a dead file, if one was opened.
func (tc *tableCache) drop(fileNum uint64) {
	tc.mu.Lock()
	r := tc.readers[fileNum]
	delete(tc.readers, fileNum)
	tc.mu.Unlock()
	if r != nil {
		r.Close()
	}
}

// close releases every open reader (used at DB close, when no readers
// remain).
func (tc *tableCache) close() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for num, r := range tc.readers {
		r.Close()
		delete(tc.readers, num)
	}
}
