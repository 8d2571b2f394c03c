package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// handSpans is two ops: op 0 is step[0,100] with children a[10,40] (which
// has a child b[20,30]) and a[50,70]; op 1 is step[200,260] with a[210,220].
func handSpans() []span {
	return []span{
		{name: "setup", start: 0, end: 5, parent: -1, op: -1},
		{name: "step", start: 0, end: 100, parent: -1, op: 0},
		{name: "a", start: 10, end: 40, parent: 1, op: 0},
		{name: "b", start: 20, end: 30, parent: 2, op: 0},
		{name: "a", start: 50, end: 70, parent: 1, op: 0},
		{name: "step", start: 200, end: 260, parent: -1, op: 1},
		{name: "a", start: 210, end: 220, parent: 5, op: 1},
		{name: "other", start: 300, end: 310, parent: -1, op: 2},
	}
}

func TestSelfTime(t *testing.T) {
	want := []int64{5, 50, 20, 10, 20, 50, 10, 10}
	got := selfTimes(handSpans())
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestOpTable(t *testing.T) {
	wall, self := opTable(handSpans(), "step")
	if len(wall) != 2 || wall[0] != 100e-9 || wall[1] != 60e-9 {
		t.Fatalf("wall = %v, want [1e-7 6e-8]", wall)
	}
	want := map[string][]float64{"step": {50e-9, 50e-9}, "a": {40e-9, 10e-9}, "b": {10e-9, 0}}
	for name, w := range want {
		for k := range w {
			if self[name][k] != w[k] {
				t.Errorf("self[%s][%d] = %v, want %v", name, k, self[name][k], w[k])
			}
		}
	}
	if _, ok := self["other"]; ok {
		t.Error("an op rooted elsewhere must not enter the table")
	}
	for k := range wall { // self times + residual close to the op's wall
		var sum float64
		for _, v := range self {
			sum += v[k]
		}
		if d := sum - wall[k]; d > 1e-18 || d < -1e-18 {
			t.Errorf("op %d: self times sum to %v, wall %v", k, sum, wall[k])
		}
	}
}

func TestTracerNestingAndNil(t *testing.T) {
	var off *tracer // tracing off: every call is a no-op
	off.nextOp()
	off.end(off.begin("x"))

	tr := newTracer(3)
	tr.nextOp()
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	c := tr.begin("c")
	tr.end(c)
	d := tr.begin("dropped") // buffer full
	tr.end(d)
	if len(tr.spans) != 3 || tr.dropped != 1 || d != -1 {
		t.Fatalf("spans=%d dropped=%d handle=%d, want 3, 1, -1", len(tr.spans), tr.dropped, d)
	}
	if tr.spans[b].parent != a || tr.spans[a].parent != -1 || tr.spans[c].parent != -1 {
		t.Errorf("parents = %d %d %d, want b under a, a and c roots", tr.spans[a].parent, tr.spans[b].parent, tr.spans[c].parent)
	}
	for _, s := range tr.spans {
		if s.op != 0 || s.end < s.start {
			t.Errorf("span %+v: want op 0 and end >= start", s)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path, map[string]any{"workload": "test"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Op     int    `json:"op"`
				Parent string `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[1].Name != "b" || doc.TraceEvents[1].Ph != "X" ||
		doc.TraceEvents[1].Args.Parent != "a" {
		t.Errorf("unexpected events: %+v", doc.TraceEvents)
	}
}
