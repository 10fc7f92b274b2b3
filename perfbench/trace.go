package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	Name string `json:"name"`
	// Op is the id of the benchmark op the call belongs to.
	Op int `json:"op"`
	// Parent indexes the enclosing span; -1 for an op's root span.
	Parent int `json:"parent"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Alloc is the Go heap bytes allocated between Start and End.
	Alloc  uint64 `json:"alloc_bytes"`
	alloc0 uint64
}

// tracer records spans around the benchmark's calls into each layer and
// counts the work those calls report. Spans stay in memory until the
// run ends. A nil *tracer records nothing: the untraced run pays one
// nil check per layer boundary.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices of the spans not yet ended, innermost last
	op     int
	// counts accumulates the work counters of ops run while counting is
	// set; the traced pass sets it for exactly one pass of the op cycle,
	// so the counts are deterministic.
	counts   map[string]float64
	counting bool
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// allocSample is reused by heapAlloc; the benchmark runs on one
// goroutine.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAlloc returns the cumulative bytes allocated on the Go heap.
func heapAlloc() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// begin opens a span named name inside the innermost open span and
// returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent,
		Start: int64(time.Since(t.origin)), alloc0: heapAlloc()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned, which must be the innermost open
// one.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.Alloc = heapAlloc() - s.alloc0
	s.End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// count adds v to the named work counter of the current op.
func (t *tracer) count(name string, v float64) {
	if t == nil || !t.counting {
		return
	}
	t.counts[name] += v
}

// selfTimes returns each span's duration minus its direct children's.
// Spans close innermost first on one goroutine, so a span's direct
// children are disjoint and lie inside it.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfAllocs returns each span's allocation minus its direct children's.
func selfAllocs(spans []span) []uint64 {
	child := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Alloc
		}
	}
	self := make([]uint64, len(spans))
	for i, s := range spans {
		if s.Alloc > child[i] {
			self[i] = s.Alloc - child[i]
		}
	}
	return self
}

// layerTotals sums self time (ns) and self allocation (bytes) per span
// name over the spans whose op is in ops.
func layerTotals(spans []span, ops map[int]bool) (selfNs map[string]int64, selfBytes map[string]uint64) {
	selfNs, selfBytes = map[string]int64{}, map[string]uint64{}
	st, sa := selfTimes(spans), selfAllocs(spans)
	for i, s := range spans {
		if ops[s.Op] {
			selfNs[s.Name] += st[i]
			selfBytes[s.Name] += sa[i]
		}
	}
	return selfNs, selfBytes
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
