// Package tracing is the causal, cycle-domain tracer behind the
// platform's request observability: every configuration transaction
// (set-up, teardown, repair) and every admission request gets a trace —
// a root span with child spans for each pipeline stage (queue wait, DRR
// grant, allocation, per-region config inject, tree settle, reply) —
// so a cross-region set-up renders as a fan-out under one root.
//
// Determinism is the package's contract, inherited from the telemetry
// registry it sits next to: every writer runs on the simulation's
// stepping goroutine or the admission service loop, span and trace IDs
// come from plain counters in emission order, timestamps are simulation
// cycles (never wall-clock), and the exporters iterate rings in
// insertion order — so a trace exported from the same workload is
// byte-identical from run to run.
//
// The tracer is also the flight recorder: finished spans and events
// live in bounded rings (oldest dropped first), cheap enough to leave
// attached through a soak, and Recorder dumps the rings (NDJSON + Chrome
// trace JSON) when a conformance checker fires, a health-monitor stall
// is declared, or the process receives SIGQUIT — every failure leaves a
// post-mortem artifact.
//
// Cost: a detached platform (nil tracer) pays exactly zero — call sites
// guard with a nil check, and every method is additionally nil-safe.
// Attached, spans are created only around configuration transactions and
// admission requests, never on the per-cycle datapath.
package tracing

import (
	"sort"
	"sync"
)

// Default ring capacities. A span is ~100 bytes, so the default recorder
// holds a few MB of recent history — hours of soak at realistic set-up
// rates.
const (
	DefaultMaxSpans  = 65536
	DefaultMaxEvents = 65536
)

// SpanRef is a handle to an in-flight span. The zero value is invalid
// and acts as "no parent"/"not traced" everywhere.
type SpanRef struct {
	trace uint64
	span  uint64
}

// Valid reports whether the ref names a real span.
func (r SpanRef) Valid() bool { return r.span != 0 }

// TraceID returns the trace the ref belongs to (0 for the zero ref).
func (r SpanRef) TraceID() uint64 { return r.trace }

// SpanID returns the span's ID (0 for the zero ref).
func (r SpanRef) SpanID() uint64 { return r.span }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one finished span: a named interval of simulation cycles
// within a trace, optionally under a parent span.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Cat is the span taxonomy category: "setup", "teardown", "repair",
	// "request", "queue", "inject", "settle", ...
	Cat   string `json:"cat"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Cycles is the span duration in cycles.
func (s Span) Cycles() uint64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Event is one instant occurrence, optionally attached to a span.
type Event struct {
	Trace  uint64 `json:"trace,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Cycle  uint64 `json:"cycle"`
	Name   string `json:"name"`
	Cat    string `json:"cat"`
	Detail string `json:"detail,omitempty"`
}

// Options tune a Tracer's rings.
type Options struct {
	// MaxSpans bounds the finished-span ring (<= 0 selects
	// DefaultMaxSpans).
	MaxSpans int
	// MaxEvents bounds the event ring (<= 0 selects DefaultMaxEvents).
	MaxEvents int
}

// Tracer allocates trace/span IDs and records finished spans and events
// in bounded rings. Safe for concurrent use; the determinism contract
// additionally requires all writers to run on one goroutine (the
// stepping goroutine or the service loop).
type Tracer struct {
	mu        sync.Mutex
	maxSpans  int
	maxEvents int

	nextTrace uint64
	nextSpan  uint64
	open      map[uint64]*Span

	spans         []Span
	events        []Event
	droppedSpans  uint64
	droppedEvents uint64
}

// New builds a tracer with the given ring bounds.
func New(opt Options) *Tracer {
	if opt.MaxSpans <= 0 {
		opt.MaxSpans = DefaultMaxSpans
	}
	if opt.MaxEvents <= 0 {
		opt.MaxEvents = DefaultMaxEvents
	}
	return &Tracer{
		maxSpans:  opt.MaxSpans,
		maxEvents: opt.MaxEvents,
		open:      make(map[uint64]*Span),
	}
}

// StartRoot opens a new trace with a root span starting at cycle.
func (t *Tracer) StartRoot(name, cat string, cycle uint64) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTrace++
	return t.startLocked(t.nextTrace, 0, name, cat, cycle)
}

// StartChild opens a child span under parent. An invalid parent starts
// a fresh trace instead, so call sites need no special casing when the
// caller did not trace.
func (t *Tracer) StartChild(parent SpanRef, name, cat string, cycle uint64) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	if !parent.Valid() {
		return t.StartRoot(name, cat, cycle)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startLocked(parent.trace, parent.span, name, cat, cycle)
}

func (t *Tracer) startLocked(trace, parent uint64, name, cat string, cycle uint64) SpanRef {
	t.nextSpan++
	id := t.nextSpan
	t.open[id] = &Span{
		Trace:  trace,
		ID:     id,
		Parent: parent,
		Name:   name,
		Cat:    cat,
		Start:  cycle,
	}
	return SpanRef{trace: trace, span: id}
}

// SetAttr annotates an in-flight span. Unknown or zero refs are ignored.
func (t *Tracer) SetAttr(ref SpanRef, key, value string) {
	if t == nil || !ref.Valid() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.open[ref.span]; ok {
		s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	}
}

// End finishes a span at cycle and moves it to the ring. Ending an
// unknown or zero ref is a no-op, so error paths may End
// unconditionally.
func (t *Tracer) End(ref SpanRef, cycle uint64) {
	if t == nil || !ref.Valid() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[ref.span]
	if !ok {
		return
	}
	delete(t.open, ref.span)
	s.End = cycle
	if len(t.spans) >= t.maxSpans {
		drop := len(t.spans) - t.maxSpans + 1
		t.spans = append(t.spans[:0], t.spans[drop:]...)
		t.droppedSpans += uint64(drop)
	}
	t.spans = append(t.spans, *s)
}

// Point records an instant event, optionally attached to a span (zero
// ref for a global event).
func (t *Tracer) Point(ref SpanRef, name, cat, detail string, cycle uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.maxEvents {
		drop := len(t.events) - t.maxEvents + 1
		t.events = append(t.events[:0], t.events[drop:]...)
		t.droppedEvents += uint64(drop)
	}
	t.events = append(t.events, Event{
		Trace:  ref.trace,
		Span:   ref.span,
		Cycle:  cycle,
		Name:   name,
		Cat:    cat,
		Detail: detail,
	})
}

// Spans returns a copy of the finished-span ring in end order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Events returns a copy of the event ring in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// OpenSpans returns the in-flight spans sorted by span ID — useful in a
// post-mortem dump, where the interesting request is often the one that
// never finished.
func (t *Tracer) OpenSpans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.open))
	for _, s := range t.open {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Dropped returns how many spans and events the rings have evicted.
func (t *Tracer) Dropped() (spans, events uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedSpans, t.droppedEvents
}

// ByTrace groups finished spans by trace ID, each group in end order,
// with trace IDs ascending — the shape renderers and tests want.
func ByTrace(spans []Span) map[uint64][]Span {
	out := make(map[uint64][]Span)
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}
