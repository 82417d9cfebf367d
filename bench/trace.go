package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness side.
// Start and End are nanoseconds since the tracer was created; Parent is the
// index of the span that caused it (-1 for a root).
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory and writes them out once, when the
// benchmark ends. It is safe for concurrent use: PlaceStream calls the
// query source and the sink from its reader and emitter goroutines.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Workload: t.workload})
	return len(t.spans) - 1
}

// end closes a span.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// duration is a closed span's length.
func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// total sums the durations of the closed spans called name under parent.
func (t *tracer) total(name string, parent int) (sum time.Duration, count int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.Parent == parent && s.End >= 0 {
			sum += time.Duration(s.End - s.Start)
			count++
		}
	}
	return sum, count
}

// totalsUnder sums, per span name, the closed spans whose parent span is
// called parentName.
func (t *tracer) totalsUnder(parentName string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 && t.spans[s.Parent].Name == parentName {
			sums[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return sums
}

// selfTime is a span's duration minus the part of that interval its child
// spans cover (children may overlap each other, so their union is taken).
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent == id && s.End >= 0 {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids = append(kids, iv{lo, hi})
			}
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
	covered, edge := int64(0), p.Start
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		covered += k.hi - max(k.lo, edge)
		edge = k.hi
	}
	return time.Duration(p.End - p.Start - covered)
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
