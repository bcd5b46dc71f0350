package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/client"
	"lsmlab/internal/core"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
)

var opNames = [3]string{opGet: "get", opPut: "put", opScan: "scan"}

// openStore opens the engine with its default options, changed by
// tune, on OSFS wrapped in a timing FS, in a fresh directory; a traced
// phase attaches its listener and tracer.
func openStore(b *bench, tune func(*core.Options)) (*store, error) {
	dir, err := os.MkdirTemp(b.workDir, "store-")
	if err != nil {
		return nil, fmt.Errorf("create store directory: %w", err)
	}
	s := &store{dir: dir, fs: newTimingFS(vfs.NewOS())}
	opts := core.DefaultOptions(s.fs, dir)
	if b.tr != nil {
		opts.EventListener = b.tr.bg
		opts.Tracer = b.tr.tracer
	}
	if tune != nil {
		tune(&opts)
	}
	s.db, err = core.Open(opts)
	return s, err
}

// loadBatches writes the preload keys in batches of n and syncs the WAL
// after each. The sync also makes the load repeatable: without it the
// loader outruns the flushes by a varying margin, and the compactions
// of the load, and so its write amplification, differ from run to run.
func loadBatches(db *core.DB, in *inputs, n int) error {
	val := make([]byte, valueLen)
	var batch core.Batch
	pre := in.preload
	for i := 0; i < pre.len(); i++ {
		k := pre.key(i)
		in.vals.fill(val, k)
		batch.Put(k, val)
		if batch.Len() == n || i == pre.len()-1 {
			if err := db.Apply(&batch); err != nil {
				return fmt.Errorf("preload batch: %w", err)
			}
			if err := db.SyncWAL(); err != nil {
				return fmt.Errorf("preload sync: %w", err)
			}
			batch.Reset()
		}
	}
	return nil
}

// checkScan verifies one scan result of n entries against the expected
// ids: the live ids of one prefix group, in ascending order.
func checkScan(vals *values, n int, entry func(i int) (k, v []byte), want []uint64) error {
	if n != len(want) {
		return fmt.Errorf("scan returned %d entries, want %d", n, len(want))
	}
	var key [keyLen]byte
	for i := range want {
		k, v := entry(i)
		putKey(key[:], want[i])
		if string(k) != string(key[:]) {
			return fmt.Errorf("scan entry %d is %q, want %q", i, k, key[:])
		}
		if !vals.check(k, v) {
			return fmt.Errorf("scan entry %q has a wrong value", k)
		}
	}
	return nil
}

// runChecks runs check(i) for every i in [0, n), the range split over
// the callers; check times its own call into lat. Each caller's share
// is cut into checkWindows windows.
func runChecks(p *phase, kind byte, n int, check func(t *tally, lat *recorder, i int)) {
	ts := make([]tally, callers)
	lats := make([]*recorder, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		lats[c] = newRecorder(checkWindows)
		lo, hi := c*n/callers, (c+1)*n/callers
		wg.Add(1)
		go func(t *tally, lat *recorder) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				lat.advance((i - lo) * checkWindows / (hi - lo))
				check(t, lat, i)
			}
		}(&ts[c], lats[c])
	}
	wg.Wait()
	for i := range ts {
		p.merge(&ts[i])
	}
	p.lat[kind] = append(p.lat[kind], lats...)
}

// scanGroups is the in-process scan check: it scans every prefix group
// of the inputs, timing each scan, and checks the result against live,
// which reports whether an id exists.
func scanGroups(b *bench, db *core.DB, p *phase, live func(id uint64) bool) {
	runChecks(p, opScan, len(b.in.groups), func(t *tally, lat *recorder, i int) {
		first := b.in.groups[i] << groupBits
		var lo, hi [keyLen]byte
		putKey(lo[:], first)
		putKey(hi[:], first+1<<groupBits)
		var wantBuf [1 << groupBits]uint64
		want := wantBuf[:0]
		for id := first; id < first+1<<groupBits; id++ {
			if live(id) {
				want = append(want, id)
			}
		}
		t0 := time.Now()
		kvs, err := db.Scan(lo[:], hi[:], 1<<groupBits)
		lat.add(time.Since(t0))
		t.attempted++
		if err == nil {
			err = checkScan(b.in.vals, len(kvs), func(i int) ([]byte, []byte) { return kvs[i].Key, kvs[i].Value }, want)
		}
		if err != nil {
			t.fail("scan %s: %v", lo[:keyLen-1], err)
		}
	})
}

// ---------------------------------------------------------------------
// point_read_large: in-process gets over a store five times the block
// cache; 10% of the keys are absent but inside every run's key range.

func setupPointRead(b *bench, p *phase) (*store, error) {
	s, err := openStore(b, nil)
	if err != nil {
		return s, err
	}
	// Load one key at a time, so the loader's puts give this workload's
	// put latencies (unsynced, one loader).
	pre := b.in.preload
	io0 := s.fs.stats()
	val := make([]byte, valueLen)
	for i := 0; i < pre.len(); i++ {
		k := pre.key(i)
		b.in.vals.fill(val, k)
		t0 := time.Now()
		err := s.db.Put(k, val)
		p.loadPuts.add(time.Since(t0))
		if err != nil {
			return s, fmt.Errorf("preload put: %w", err)
		}
	}
	if p.lat[opPut] == nil {
		p.lat[opPut] = []*recorder{p.loadPuts}
	}
	n := int64(pre.len())
	if err := recordAmps(s, p, io0, n*entryLen, n); err != nil {
		return s, err
	}
	// A full compaction gives every run the same tree shape: how many
	// level-0 runs a settled load leaves depends on how the loader and
	// the compactor happened to interleave.
	if err := s.db.Compact(); err != nil {
		return s, fmt.Errorf("compact: %w", err)
	}
	for i := 0; i < b.in.warm.len(); i++ {
		if _, err := s.db.Get(b.in.warm.key(i)); err != nil && !errors.Is(err, core.ErrNotFound) {
			return s, fmt.Errorf("warm get: %w", err)
		}
	}
	return s, nil
}

func measurePointRead(b *bench, s *store, p *phase) {
	runCallers(b, p, func(c *caller, stop *atomic.Bool) {
		st := b.in.callers[c.id]
		n := st.len()
		for i := 0; !stop.Load(); i++ {
			k := st.key(i % n)
			t0 := time.Now()
			v, err := s.db.Get(k)
			c.done(opGet, t0)
			id, _ := keyID(k)
			switch {
			case id%2 == 1:
				if !errors.Is(err, core.ErrNotFound) {
					c.fail("get absent %s: got %v", k, err)
				}
			case err != nil:
				c.fail("get %s: %v", k, err)
			case !b.in.vals.check(k, v):
				c.fail("get %s: wrong value", k)
			}
		}
	})
}

func checkPointRead(b *bench, s *store, p *phase) error {
	scanGroups(b, s.db, p, func(id uint64) bool { return id%2 == 0 && id < 2*prlKeys })
	return nil
}

// ---------------------------------------------------------------------
// durable_ingest: in-process puts with every commit synced, long enough
// for many flushes and compactions; then a reopen and a full read-back.

// model is a set of ids of the durable workload's key space.
type model []uint64

func newModel() model              { return make(model, diKeySpace/64) }
func (m model) set(id uint64)      { m[id/64] |= 1 << (id % 64) }
func (m model) has(id uint64) bool { return m[id/64]&(1<<(id%64)) != 0 }

func (m model) or(o model) {
	for i := range m {
		m[i] |= o[i]
	}
}

func (m model) count() int64 {
	var n int64
	for _, w := range m {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func durableOptions(o *core.Options) { o.SyncWAL = true }

func setupDurable(b *bench, p *phase) (*store, error) {
	s, err := openStore(b, durableOptions)
	if err != nil {
		return s, err
	}
	if err := loadBatches(s.db, b.in, 1000); err != nil {
		return s, err
	}
	s.acked = newModel()
	pre := b.in.preload
	for i := 0; i < pre.len(); i++ {
		id, _ := keyID(pre.key(i))
		s.acked.set(id)
	}
	return s, settle(s)
}

func measureDurable(b *bench, s *store, p *phase) {
	models := make([]model, callers)
	for c := range models {
		models[c] = newModel()
	}
	runCallers(b, p, func(c *caller, stop *atomic.Bool) {
		st, acked := b.in.callers[c.id], models[c.id]
		n := st.len()
		val := make([]byte, valueLen)
		for i := 0; !stop.Load(); i++ {
			k := st.key(i % n)
			b.in.vals.fill(val, k)
			t0 := time.Now()
			err := s.db.Put(k, val)
			c.done(opPut, t0)
			if err != nil {
				c.fail("put %s: %v", k, err)
				continue
			}
			id, _ := keyID(k)
			acked.set(id)
		}
	})
	for _, m := range models {
		s.acked.or(m)
	}
}

func drainDurable(s *store, p *phase) error {
	return recordAmps(s, p, p.ioAtStart, p.timedOps[opPut]*entryLen, s.acked.count())
}

// checkDurable closes the store, reopens it, reads back every
// acknowledged key and scans prefix groups against the model.
func checkDurable(b *bench, s *store, p *phase) error {
	// Compact first, so the timed checks read the same tree shape
	// whatever the timed phase left behind.
	if err := s.db.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	err := s.db.Close()
	s.db = nil
	if err != nil {
		return fmt.Errorf("close before reopen: %w", err)
	}
	db, err := core.Open(core.DefaultOptions(vfs.NewOS(), s.dir))
	if err != nil {
		p.fail("reopen: %v", err)
		return nil
	}
	defer db.Close()
	readBack(b, db, p, s.acked)
	scanGroups(b, db, p, s.acked.has)
	return nil
}

// readBack gets every id in acked from db in a seeded random order,
// timing each get.
func readBack(b *bench, db *core.DB, p *phase, acked model) {
	var ids []uint64
	for id := uint64(0); id < diKeySpace; id++ {
		if acked.has(id) {
			ids = append(ids, id)
		}
	}
	r := rand.New(rand.NewSource(b.in.seed))
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	runChecks(p, opGet, len(ids), func(t *tally, lat *recorder, i int) {
		var k [keyLen]byte
		putKey(k[:], ids[i])
		t0 := time.Now()
		v, err := db.Get(k[:])
		lat.add(time.Since(t0))
		t.attempted++
		switch {
		case err != nil:
			t.fail("read back %s after reopen: %v", k[:], err)
		case !b.in.vals.check(k[:], v):
			t.fail("read back %s after reopen: wrong value", k[:])
		}
	})
}

// ---------------------------------------------------------------------
// served_mixed_zipf: client → loopback TCP → server → engine, a zipfian
// 90/5/5 get/put/scan mix over a store that fits the block cache.

// servedQuota is the admission default quota in ops/s: far above the
// offered closed-loop rate, so every request pays the admit check and
// none is throttled.
const servedQuota = 1_000_000

// servedOptions are lsmserved's defaults but for SyncWAL, which stays
// off: with it, every put waits on an fsync of the shared disk, whose
// latency drifted twofold over minutes on the machine the benchmark was
// written on, and moved this workload's put and get figures by 30–80%
// between runs. durable_ingest measures the synced commit path.
func servedOptions(o *core.Options) { o.RecordLatencies = true }

func setupServed(b *bench, p *phase) (*store, error) {
	s, err := openStore(b, servedOptions)
	if err != nil {
		return s, err
	}
	io0 := s.fs.stats()
	if err := loadBatches(s.db, b.in, 500); err != nil {
		return s, err
	}
	if err := recordAmps(s, p, io0, smzKeys*entryLen, smzKeys); err != nil {
		return s, err
	}
	if err := s.db.Compact(); err != nil {
		return s, fmt.Errorf("compact: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, fmt.Errorf("listen: %w", err)
	}
	adm := admission.NewController(admission.Config{Default: admission.Quota{OpsPerSec: servedQuota}})
	s.srv = server.New(s.db, server.Options{Admission: adm})
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		s.srv.Serve(ln)
	}()
	copts := client.Options{PoolSize: 1, MaxRetries: -1}
	if b.tr != nil {
		copts.TraceEvery = 1
		copts.TraceRingSize = clientRingCap
	}
	for c := 0; c < callers; c++ {
		cl, err := client.Dial(ln.Addr().String(), copts)
		if err != nil {
			return s, fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, cl)
	}
	if b.tr != nil {
		b.tr.clients = s.clients
	}
	// Warm the block cache and the connections: every key once.
	warm := b.in.warm
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < warm.len(); i += callers {
				if _, err := s.clients[c].Get(warm.key(i)); err != nil {
					errs[c] = fmt.Errorf("warm get: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return s, errors.Join(errs...)
}

func measureServed(b *bench, s *store, p *phase) {
	runCallers(b, p, func(c *caller, stop *atomic.Bool) {
		cl, st := s.clients[c.id], b.in.callers[c.id]
		n := st.len()
		val := make([]byte, valueLen)
		want := make([]uint64, 1<<groupBits)
		for i := 0; !stop.Load(); i++ {
			k, kind := st.key(i%n), st.kind(i%n)
			if kind == opPut {
				b.in.vals.fill(val, k)
			}
			var err error
			var v []byte
			var kvs []client.KV
			t0 := time.Now()
			switch kind {
			case opGet:
				v, err = cl.Get(k)
			case opPut:
				err = cl.Put(k, val)
			case opScan:
				kvs, err = cl.Scan(k[:keyLen-1], 1<<groupBits)
			}
			c.done(kind, t0)
			switch {
			case err != nil:
				c.fail("%s %s: %v", opNames[kind], k, err)
			case kind == opGet && !b.in.vals.check(k, v):
				c.fail("get %s: wrong value", k)
			case kind == opScan:
				id, _ := keyID(k)
				first := id &^ (1<<groupBits - 1)
				for j := range want {
					want[j] = first + uint64(j)
				}
				c.scanEntries += int64(len(kvs))
				if err := checkScan(b.in.vals, len(kvs), func(i int) ([]byte, []byte) { return kvs[i].Key, kvs[i].Value }, want); err != nil {
					c.fail("scan %s: %v", k[:keyLen-1], err)
				}
			}
		}
	})
}
