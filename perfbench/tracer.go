package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer started
	Parent     int           // index of the enclosing span, -1 at the root
}

// tracer keeps spans in memory around the replay's calls into each layer.
// Disabled, it records nothing, so the same replay measures the overhead.
// Spans nest through a stack: the replay is one goroutine.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// do runs f inside a span named name ("layer.call") and returns f's wall
// time, which the replay needs whether or not spans are kept.
func (t *tracer) do(name string, f func()) time.Duration {
	if !t.on {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = time.Since(t.t0)
	return t.spans[id].End - t.spans[id].Start
}

// layer is the part of a span name before the first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each layer's self time: the summed duration of its spans
// minus the parts of those intervals their child spans cover. Children of
// one span never overlap (the replay is sequential), so the covered part is
// the sum of the children's durations.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[layer(s.Name)] += s.End - s.Start
		if s.Parent >= 0 {
			self[layer(t.spans[s.Parent].Name)] -= s.End - s.Start
		}
	}
	return self
}

// writeSummary prints the per-layer self-time table, largest first.
func (t *tracer) writeSummary(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "self %-10s %10.3f ms\n", n, float64(self[n])/float64(time.Millisecond))
	}
}

// chromeEvent is one Chrome trace-event ("X" complete event), the format
// the simulator's own timeline traces use.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome emits the spans as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev).
func (t *tracer) writeChrome(w io.Writer) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: layer(s.Name), Ph: "X",
			TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: 1,
			Args: map[string]any{"id": i, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
