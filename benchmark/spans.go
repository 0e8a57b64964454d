package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one harness-side interval around a call into a layer of the
// system under test. The spans of one operation share its op id; parent
// is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// measured run: every method is a no-op, so the call sites cost one nil
// check with tracing off. The on flag lets a traced run alternate traced
// and untraced repetitions inside one process, which is how the tracing
// overhead is measured.
type tracer struct {
	t0    time.Time
	spans []span
	on    bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent int32, op uint64) int32 {
	if t == nil || !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes the span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on = on
	}
}

// layerTime is the accumulated time of every span of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	// Self is Total minus the part covered by child spans.
	Self time.Duration
}

// selfTimes folds the recorded spans per name. A span's self time is
// its duration minus the durations of its direct children.
func (t *tracer) selfTimes() []layerTime {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - child[i])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// durations returns the duration of every span of one name, in
// recording order.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// writeFile dumps every span as one JSON document.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
