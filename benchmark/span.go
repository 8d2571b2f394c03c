package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one bracketed call into a layer: name, start and end in
// nanoseconds since the tracer's epoch, the span that caused it (-1 for a
// root) and the identifier every span of one op shares.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

// tracer records spans from the benchmark's own files into a preallocated
// buffer, so a traced op allocates nothing; a nil tracer records nothing
// and is what every end-to-end measurement runs with. Spans nest by call
// order on the single driver goroutine (begin pushes, end pops). When the
// buffer is full further spans are counted as dropped, never appended.
type tracer struct {
	epoch   time.Time
	spans   []span
	stack   []int32
	op      int32
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, 0, capacity),
		stack: make([]int32, 0, 16),
		op:    -1,
	}
}

// nextOp starts a new op: spans begun from now on carry its identifier.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span and returns its handle for end; -1 when not recording.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op,
		start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// selfTimes returns every span's self time: its duration minus the part of
// it that its direct children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// opTable gathers the ops whose root span is named root: wall[k] is the
// k-th such op's root duration and self[name][k] the self time it spent in
// spans of that name (seconds, 0 where it had none). By construction the
// self times of one op sum to its wall; the root's own self time is the
// part no child span covers — the op's residual.
func opTable(spans []span, root string) (wall []float64, self map[string][]float64) {
	index := map[int32]int{}
	for _, s := range spans {
		if s.parent < 0 && s.op >= 0 && s.name == root {
			index[s.op] = len(wall)
			wall = append(wall, float64(s.end-s.start)/1e9)
		}
	}
	self = map[string][]float64{}
	for i, d := range selfTimes(spans) {
		s := spans[i]
		k, ok := index[s.op]
		if !ok {
			continue
		}
		if self[s.name] == nil {
			self[s.name] = make([]float64, len(wall))
		}
		self[s.name][k] += float64(d) / 1e9
	}
	return wall, self
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing open
// directly. Every event's args carry the op id and the parent span's name.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","otherData":`)
	if err := json.NewEncoder(w).Encode(meta); err != nil {
		f.Close()
		return err
	}
	fmt.Fprint(w, `,"traceEvents":[`)
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%q}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
