package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"sync"
	"time"
)

// Event is one trace record. The trace file is newline-delimited JSON, one
// event per line, timestamps relative to the trace's start — the format
// cmd/placestats --trace consumes for post-hoc timeline analysis. Unlike
// the counter sink, tracing is not free (one JSON encode + buffered write
// per event); it is opt-in per run and events are per-chunk, not per-query,
// so the cost stays far off the inner hot paths.
type Event struct {
	TS      int64  `json:"ts_ns"`             // nanoseconds since trace start
	Ev      string `json:"ev"`                // event kind, e.g. "chunk_place"
	Chunk   int    `json:"chunk,omitempty"`   // chunk ordinal (1-based), if chunk-scoped
	Queries int    `json:"queries,omitempty"` // queries in the chunk
	DurNS   int64  `json:"dur_ns,omitempty"`  // event duration
	Bytes   int64  `json:"bytes,omitempty"`   // bytes touched, if byte-scoped
	Detail  string `json:"detail,omitempty"`  // free-form annotation
}

// Trace serializes events to a writer. All methods are safe for concurrent
// use (engines placing on different goroutines may share one trace) and
// nil-receiver-safe, so instrumented code traces unconditionally. The first
// write error is sticky and reported by Close; later events are dropped.
type Trace struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	start time.Time
	err   error
}

// NewTrace starts a trace over w. If w is also an io.Closer, Close closes
// it after flushing.
func NewTrace(w io.Writer) *Trace {
	t := &Trace{w: bufio.NewWriter(w), start: time.Now()}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Emit writes one event, stamping TS from the trace's monotonic start.
func (t *Trace) Emit(ev Event) {
	if t == nil {
		return
	}
	ts := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	ev.TS = ts
	data, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(data, '\n')); err != nil {
		t.err = err
	}
}

// Close flushes and closes the underlying writer, returning the first error
// encountered over the trace's lifetime. Nil-safe and idempotent.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var errs []error
	if t.err != nil {
		errs = append(errs, t.err)
	}
	if t.w != nil {
		if err := t.w.Flush(); err != nil {
			errs = append(errs, err)
		}
		t.w = bufio.NewWriter(io.Discard) // later emits go nowhere
	}
	if t.c != nil {
		if err := t.c.Close(); err != nil {
			errs = append(errs, err)
		}
		t.c = nil
	}
	return errors.Join(errs...)
}
