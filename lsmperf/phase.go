package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"lsmlab/internal/client"
	"lsmlab/internal/core"
	lsmmetrics "lsmlab/internal/metrics"
	"lsmlab/internal/server"
)

// Measurement windows: the timed phase is cut into timedWindows equal
// windows and each fixed-work check into checkWindows equal shares;
// every reported rate and percentile is the median over the windows.
const (
	timedWindows = 10
	checkWindows = 5
)

// store is one open instance of the system under test: the engine on
// OSFS in a fresh directory, and for the served workload the server
// and one client per caller.
type store struct {
	dir     string
	fs      *timingFS
	db      *core.DB
	srv     *server.Server
	clients []*client.Client
	served  sync.WaitGroup // the Serve goroutine
	acked   model          // durable_ingest: every acknowledged id
}

func (s *store) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		if err := s.srv.Shutdown(5 * time.Second); err != nil && !errors.Is(err, server.ErrShutdown) {
			return fmt.Errorf("server shutdown: %w", err)
		}
		s.served.Wait()
		s.srv = nil
	}
	if s.db == nil {
		return nil
	}
	err := s.db.Close()
	s.db = nil
	return err
}

// tally counts attempted and failed operations and keeps the first few
// failures. Each caller has its own; they are merged when it stops.
type tally struct {
	attempted int64
	failed    int64
	failures  []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
}

// phase is what one run of a workload produced: its set-ups, its timed
// phase and its checks.
type phase struct {
	tally
	setupS []float64 // one per set-up performed

	// The timed phase: completed operations by kind (opGet, opPut,
	// opScan), per-window throughput, and the callers' summed time
	// inside their calls, by kind.
	elapsed  time.Duration
	timedOps [3]int64
	rates    []float64
	callNs   [3]int64

	// Latency recorders behind each end-to-end percentile. Where the
	// timed phase issues no op of a kind, the workload records that kind
	// in the set-up or check phase that does (see README.md).
	lat      [3][]*recorder
	loadPuts *recorder // point_read_large: the loader's puts, one window per set-up

	scanEntries int64
	// Write and space amplification, one value per measured store; the
	// reported figure is their median.
	writeAmps []float64
	spaceAmps []float64
	memPeak   uint64
	rt        runtimeDelta

	// Layer deltas over the window from the start of the timed phase to
	// the end of its drain.
	m          lsmmetrics.Snapshot
	io         ioStats
	ioAtStart  ioStats
	net        lsmmetrics.Snapshot
	windowFrom int64 // unix ns
	windowTo   int64
	throttled  int64
}

func (p *phase) opsPerSec() float64 { return medianFloat(p.rates) }

// callMeanUs is the callers' mean time inside one call of a kind.
func (p *phase) callMeanUs(kind byte) float64 {
	return div(float64(p.callNs[kind]), float64(p.timedOps[kind])) / 1e3
}

// bench carries one run's fixed context into the workloads.
type bench struct {
	in      *inputs
	workDir string
	seconds float64
	tr      *tracing // nil for an untraced phase
}

// workloadFuncs are the steps a workload defines. setup returns an open
// store ready to measure; measure runs the timed phase; drain settles
// the timed phase's writes and measures their amplification (nil for a
// workload whose amplification is that of its load); check runs the
// checks that follow.
type workloadFuncs struct {
	setup   func(b *bench, p *phase) (*store, error)
	measure func(b *bench, s *store, p *phase)
	drain   func(s *store, p *phase) error
	check   func(b *bench, s *store, p *phase) error
}

var workloads = map[string]workloadFuncs{
	"point_read_large":  {setupPointRead, measurePointRead, nil, checkPointRead},
	"durable_ingest":    {setupDurable, measureDurable, drainDurable, checkDurable},
	"served_mixed_zipf": {setupServed, measureServed, nil, nil},
}

// runPhase sets the workload up setups times, keeping only the last
// store (set-up time is the median over all), then measures it for
// b.seconds, drains and checks it.
func runPhase(w workloadFuncs, b *bench, setups int) (*phase, error) {
	p := &phase{loadPuts: newRecorder(setups)}
	var s *store
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		st, err := w.setup(b, p)
		if err != nil {
			if st != nil {
				st.close()
				os.RemoveAll(st.dir)
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		p.loadPuts.advance(i + 1)
		if i < setups-1 {
			err := st.close()
			os.RemoveAll(st.dir)
			if err != nil {
				return nil, fmt.Errorf("close after set-up: %w", err)
			}
			continue
		}
		s = st
	}
	defer os.RemoveAll(s.dir)
	if err := measureWindow(w, b, s, p); err != nil {
		s.close()
		return nil, err
	}
	if w.check != nil {
		runtime.GC()
		if err := w.check(b, s, p); err != nil {
			s.close()
			return nil, err
		}
	}
	return p, s.close()
}

// measureWindow runs the timed phase and its drain, and records the
// layer deltas over both.
func measureWindow(w workloadFuncs, b *bench, s *store, p *phase) error {
	runtime.GC()
	m0 := s.db.Metrics()
	p.ioAtStart = s.fs.stats()
	var net0 lsmmetrics.Snapshot
	if s.srv != nil {
		net0 = s.srv.Metrics()
	}
	if b.tr != nil {
		s.fs.attach(b.tr.io)
		defer s.fs.attach(nil)
	}
	p.windowFrom = time.Now().UnixNano()
	rt0 := readRuntime()
	mem := startMemSampler()
	w.measure(b, s, p)
	p.memPeak = mem.stop()
	p.rt = readRuntime().sub(rt0)
	if w.drain != nil {
		if err := w.drain(s, p); err != nil {
			return err
		}
	}
	p.windowTo = time.Now().UnixNano()
	p.m = s.db.Metrics().Sub(m0)
	p.io = s.fs.stats().sub(p.ioAtStart)
	if s.srv != nil {
		p.net = s.srv.Metrics().Sub(net0)
		for _, t := range s.srv.Admission().Stats() {
			p.throttled += t.Throttled
		}
		for _, c := range s.clients {
			p.throttled += c.Throttles()
		}
	}
	return nil
}

// caller is one closed-loop caller of the timed phase: it issues its
// next request only after the previous one returned.
type caller struct {
	tally
	id          int
	ops         [3]int64
	callNs      [3]int64
	scanEntries int64
	lat         [3]*recorder

	start time.Time
	win   time.Duration
}

// done records one completed call of kind that started at t0 and
// moves every recorder to the window the call ended in.
func (c *caller) done(kind byte, t0 time.Time) {
	end := time.Now()
	d := end.Sub(t0)
	c.lat[kind].add(d)
	c.attempted++
	c.ops[kind]++
	c.callNs[kind] += int64(d)
	if i := int(end.Sub(c.start) / c.win); i > c.lat[kind].cur {
		for _, r := range c.lat {
			r.advance(i)
		}
	}
}

// runCallers runs fn on every caller until b.seconds have passed and
// merges what they recorded into p.
func runCallers(b *bench, p *phase, fn func(c *caller, stop *atomic.Bool)) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	dur := time.Duration(b.seconds * float64(time.Second))
	cs := make([]*caller, callers)
	for i := range cs {
		cs[i] = &caller{id: i, win: dur / timedWindows}
		for k := range cs[i].lat {
			cs[i].lat[k] = newRecorder(timedWindows)
		}
	}
	t0 := time.Now()
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	for _, c := range cs {
		c.start = t0
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			fn(c, &stop)
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(t0)

	var all []*recorder
	for _, c := range cs {
		p.merge(&c.tally)
		p.scanEntries += c.scanEntries
		for k := range c.ops {
			p.timedOps[k] += c.ops[k]
			p.callNs[k] += c.callNs[k]
			if c.ops[k] > 0 {
				p.lat[k] = append(p.lat[k], c.lat[k])
			}
			all = append(all, c.lat[k])
		}
	}
	p.rates = windowRates(dur/timedWindows, all...)
}

// dirBytes is the on-disk size of every file in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// settle flushes the memtable and waits for background work, so write
// and space amplification describe a store with nothing pending.
func settle(s *store) error {
	if err := s.db.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	s.db.WaitIdle()
	return nil
}

// recordAmps settles the store and records its write amplification
// (every byte written through the FS since io0, WAL included, per user
// byte written since) and its space amplification (bytes on disk per
// logical byte of the liveKeys live keys).
func recordAmps(s *store, p *phase, io0 ioStats, userBytes, liveKeys int64) error {
	if err := settle(s); err != nil {
		return err
	}
	if userBytes == 0 {
		return errors.New("no user bytes were written")
	}
	p.writeAmps = append(p.writeAmps, float64(s.fs.stats().sub(io0).writtenBytes())/float64(userBytes))
	n, err := dirBytes(s.dir)
	if err != nil {
		return err
	}
	p.spaceAmps = append(p.spaceAmps, float64(n)/float64(liveKeys*entryLen))
	return nil
}

// ---------------------------------------------------------------------
// Go runtime accounting

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

type runtimeDelta struct {
	allocs, allocBytes, gcCycles uint64
	pauseNs                      uint64
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{allocs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{r.allocs - o.allocs, r.allocBytes - o.allocBytes, r.gcCycles - o.gcCycles, r.pauseNs - o.pauseNs}
}

// memSampler tracks the peak Go heap in use (live objects and those
// not yet collected) while the timed phase runs.
type memSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{done: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			m.peak = max(m.peak, s[0].Value.Uint64())
			select {
			case <-m.done:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *memSampler) stop() uint64 {
	close(m.done)
	m.wg.Wait()
	return m.peak
}
