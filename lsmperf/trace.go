package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"lsmlab/internal/client"
	"lsmlab/internal/events"
	"lsmlab/internal/trace"
)

// bgSpan is one background job or stall, rebuilt from the engine's end
// event (which carries the duration).
type bgSpan struct {
	Kind     string `json:"kind"` // flush, compaction, stall
	StartNs  int64  `json:"start_ns"`
	DurNs    int64  `json:"dur_ns"`
	InBytes  int64  `json:"in_bytes,omitempty"`
	OutBytes int64  `json:"out_bytes,omitempty"`
}

// bgLog is the traced run's events.Listener: it turns flush,
// compaction and write-stall begin/end pairs into spans.
type bgLog struct {
	mu    sync.Mutex
	spans []bgSpan
}

func (l *bgLog) Notify(e events.Event) {
	var kind string
	switch e.Type {
	case events.FlushEnd:
		kind = "flush"
	case events.CompactionEnd:
		kind = "compaction"
	case events.WriteStallEnd:
		kind = "stall"
	default:
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, bgSpan{Kind: kind, StartNs: e.TimeNs - e.DurationNs, DurNs: e.DurationNs,
		InBytes: e.InputBytes, OutBytes: e.OutputBytes})
	l.mu.Unlock()
}

// totals returns the count and summed duration of the spans of one
// kind that ended in the window [from, to] (unix ns).
func (l *bgLog) totals(kind string, from, to int64) (n int, ns int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if end := s.StartNs + s.DurNs; s.Kind == kind && end >= from && end <= to {
			n++
			ns += s.DurNs
		}
	}
	return n, ns
}

// tracing is everything the traced phase attaches: the file-call span
// log, the background listener, the engine tracer (every operation
// sampled) and, when serving, the clients' stitched trace records.
type tracing struct {
	io      *spanLog
	bg      *bgLog
	tracer  *trace.Tracer
	clients []*client.Client
}

const (
	ioSpanCap     = 1 << 16
	tracerRing    = 1 << 14
	clientRingCap = 1 << 14
)

func newTracing() *tracing {
	return &tracing{
		io:     newSpanLog(ioSpanCap),
		bg:     &bgLog{},
		tracer: trace.New(trace.Options{SampleEvery: 1, RingSize: tracerRing}),
	}
}

// opSpans returns the engine spans of one op from the tracer's ring.
func (t *tracing) opSpans(op string) []int64 {
	var ds []int64
	for _, sp := range t.tracer.Spans() {
		if sp.Op == op {
			ds = append(ds, sp.DurNs)
		}
	}
	return ds
}

// clientRecords returns the stitched client/server records of one op.
func (t *tracing) clientRecords(op string) []client.TraceRecord {
	var out []client.TraceRecord
	for _, c := range t.clients {
		for _, r := range c.Traces() {
			if r.Op == op {
				out = append(out, r)
			}
		}
	}
	return out
}

// write dumps every kept span as JSON lines: file calls, background
// jobs, engine spans and client records, one object per line tagged by
// its source.
func (t *tracing) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprintf(w, `{"source":"vfs","dropped":%d}`+"\n", t.io.dropped.Load())
	for _, s := range t.io.kept() {
		fmt.Fprintf(w, `{"source":"vfs","class":%q,"call":%q,"start_ns":%d,"dur_ns":%d,"bytes":%d}`+"\n",
			classNames[s.class], ioKindNames[s.kind], s.startNs, s.durNs, s.bytes)
	}
	t.bg.mu.Lock()
	for _, s := range t.bg.spans {
		enc.Encode(struct {
			Source string `json:"source"`
			bgSpan
		}{"events", s})
	}
	t.bg.mu.Unlock()
	for _, sp := range t.tracer.Spans() {
		enc.Encode(struct {
			Source string     `json:"source"`
			Span   trace.Span `json:"span"`
		}{"engine", sp})
	}
	for _, c := range t.clients {
		for _, r := range c.Traces() {
			enc.Encode(struct {
				Source string `json:"source"`
				client.TraceRecord
			}{"client", r})
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
