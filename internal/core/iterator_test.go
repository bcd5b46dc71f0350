package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"lsmlab/internal/vfs"
)

// pauseFS holds table-file creation while paused, so memtables that
// rotate in the meantime stay unflushed immutable runs.
type pauseFS struct {
	vfs.FS
	mu *sync.RWMutex
}

func (f pauseFS) Create(name string) (vfs.File, error) {
	if vfs.HasSuffix(name, ".sst") {
		f.mu.RLock()
		f.mu.RUnlock()
	}
	return f.FS.Create(name)
}

// TestScanSkipsHotKeyVersions checks latest and snapshot scans against
// a model when keys carry up to and past the step bound of versions
// (7, 8, 9 and 2,000), spread over the mutable memtable, unflushed
// immutable memtables and flushed runs, with a range tombstone over
// the hot key in an older run, a dead key, and a merge-operand key next
// to the hot key.
func TestScanSkipsHotKeyVersions(t *testing.T) {
	var gate sync.RWMutex
	db := mergeDB(t, func(o *Options) {
		o.FS = pauseFS{FS: vfs.NewMem(), mu: &gate}
		o.MaxImmutableBuffers = 64
	})
	const rounds = 2000
	// The merge key is the hot key's immediate successor, the tightest
	// neighbour a skip past the hot key's versions must not overshoot.
	const mergeKey = "k2000\x00"
	versions := map[string]int{"k07": 7, "k08": 8, "k09": 9, "k2000": rounds}
	model := map[string]string{}
	var counter int64
	var snap *Snapshot
	var snapModel map[string]string
	paused := false
	defer func() {
		if paused {
			gate.Unlock()
		}
	}()

	check := func(stage string) {
		t.Helper()
		checkScans(t, stage+" latest", model, db.Scan)
		checkScans(t, stage+" snapshot", snapModel, snap.Scan)
	}

	for i := 0; i < rounds; i++ {
		for k, n := range versions {
			if i%(rounds/n) == 0 && i/(rounds/n) < n {
				v := fmt.Sprintf("%s-v%d", k, i)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
		}
		if i%40 == 0 {
			if err := db.Merge([]byte(mergeKey), delta(1)); err != nil {
				t.Fatal(err)
			}
			counter++
			model[mergeKey] = string(delta(counter))
		}
		switch i {
		case 400, 800:
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		case 600:
			// Covers the hot key's and the merge key's older versions,
			// which sit in the run flushed at 400 and in the memtable.
			if err := db.DeleteRange([]byte("k2"), []byte("k3")); err != nil {
				t.Fatal(err)
			}
			delete(model, "k2000")
			delete(model, mergeKey)
			counter = 0
		case 1000:
			snap = db.NewSnapshot()
			defer snap.Release()
			snapModel = map[string]string{}
			for k, v := range model {
				snapModel[k] = v
			}
		case 1200:
			gate.Lock()
			paused = true
		case 1900:
			// A dead key: its newest version is a point tombstone.
			if err := db.Delete([]byte("k09")); err != nil {
				t.Fatal(err)
			}
			delete(model, "k09")
		}
	}
	check("unflushed")
	gate.Unlock()
	paused = false
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}

// checkScans compares a full scan, and a two-entry scan starting at
// each key, with the model.
func checkScans(t *testing.T, what string, want map[string]string, scan func(start, end []byte, limit int) ([]KV, error)) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got, err := scan(nil, nil, 0)
	if err != nil {
		t.Fatalf("%s scan: %v", what, err)
	}
	if len(got) != len(keys) {
		t.Fatalf("%s scan: %d entries %v, want %v", what, len(got), got, keys)
	}
	for i, kv := range got {
		if string(kv.Key) != keys[i] || string(kv.Value) != want[keys[i]] {
			t.Fatalf("%s scan entry %d: %q=%q, want %q=%q", what, i, kv.Key, kv.Value, keys[i], want[keys[i]])
		}
	}
	for i, k := range keys {
		got, err := scan([]byte(k), nil, 2)
		if err != nil {
			t.Fatalf("%s scan from %q: %v", what, k, err)
		}
		n := min(2, len(keys)-i)
		if len(got) != n || string(got[0].Key) != k || (n == 2 && string(got[1].Key) != keys[i+1]) {
			t.Fatalf("%s scan from %q: %v", what, k, got)
		}
	}
}
