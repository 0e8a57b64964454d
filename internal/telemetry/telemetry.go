// Package telemetry is the unified, cycle-domain observability layer of
// the repository: a deterministic metrics registry that platform
// components publish into, plus machine-readable exporters (Prometheus
// text exposition, NDJSON) and the building blocks the human-readable
// reports are views over.
//
// Determinism contract. Every value in a registry is keyed by simulation
// cycles, never by wall clock, and every mutation happens on the
// simulator's stepping goroutine — either in a probe (which the kernel
// runs after each cycle's commit) or in an ordered-tail component's Eval
// (which runs in registration order). A registry exported after a seeded
// run is therefore byte-identical from run to run; the root-level
// TestPins pins the hashes of both exports (rows soak/42 and soak/43,
// and every row that attaches telemetry) to recorded constants.
//
// Concurrency contract. Writers are confined to the stepping goroutine as
// above, but exporters may read concurrently (the -metrics-addr HTTP
// endpoint scrapes a live simulation). Scalar metrics (Counter, Gauge,
// Histogram buckets) therefore use atomic storage, and the variable-size
// structures (spans, events, series) are guarded by the registry mutex.
// This keeps the single-writer hot path lock-free: a Counter.Add is one
// atomic add.
//
// Cost contract. Components do not talk to a registry on the datapath:
// they keep their own plain counters exactly as before, and an attached
// registry harvests them from a probe at a configurable sample interval.
// With no registry attached nothing is harvested and nothing is
// allocated. The benchmark's telemetry.attach_overhead_ratio rung
// (benchmark/ladder.go) measures the attached case.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing cycle-domain metric. Writers must
// be on the stepping goroutine; readers may be concurrent.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Store sets the counter to an absolute value — used by harvest probes
// that mirror a component's own monotonic counter into the registry.
func (c *Counter) Store(v uint64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous cycle-domain value (a queue depth, the
// current cycle). Same concurrency rules as Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the last stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram of uint64 observations
// (latencies in cycles, word counts). Buckets are defined by their upper
// bounds; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []uint64 // ascending upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

// DefaultCycleBuckets suit cycle-valued latencies at the platform scales
// this repository simulates (set-up ~60-120 cycles, repair ~2x that).
var DefaultCycleBuckets = []uint64{16, 32, 64, 128, 256, 512, 1024, 4096}

func newHistogram(bounds []uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	placed := false
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Buckets returns the bucket upper bounds and their cumulative counts
// (Prometheus semantics: bucket i counts observations <= bounds[i]; the
// final implicit +Inf bucket equals Count).
func (h *Histogram) Buckets() (bounds []uint64, cumulative []uint64) {
	bounds = make([]uint64, len(h.bounds))
	copy(bounds, h.bounds)
	cumulative = make([]uint64, len(h.bounds))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return bounds, cumulative
}

// SeriesSample is one point of a windowed time series.
type SeriesSample struct {
	Cycle uint64
	Value float64
}

// Series is a windowed cycle-domain time series: a bounded ring of
// (cycle, value) samples appended by a harvest probe. When the window is
// full the oldest sample is dropped.
type Series struct {
	mu      sync.Mutex
	window  int
	samples []SeriesSample
}

func newSeries(window int) *Series {
	if window <= 0 {
		window = 256
	}
	return &Series{window: window}
}

// Append records one sample, evicting the oldest beyond the window.
func (s *Series) Append(cycle uint64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, SeriesSample{Cycle: cycle, Value: v})
	if len(s.samples) > s.window {
		s.samples = s.samples[len(s.samples)-s.window:]
	}
}

// Samples returns a copy of the current window.
func (s *Series) Samples() []SeriesSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesSample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Last returns the most recent sample, if any.
func (s *Series) Last() (SeriesSample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return SeriesSample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// Span is one structured configuration transaction — a connection
// set-up, tear-down or repair — with its cycle-domain timeline and the
// configuration words it cost. Spans replace the ad-hoc
// SetupSubmitCycle/SetupDoneCycle/SetupWords fields that used to live on
// core.Connection.
type Span struct {
	// Op is the transaction kind: "setup", "teardown" or "repair".
	Op string `json:"op"`
	// ID is the connection ID the transaction belongs to.
	ID int `json:"id"`
	// SubmitCycle is when the first packet entered the configuration
	// module's queue; SettleCycle is when the whole transaction had
	// drained through the tree (0 while still in flight).
	SubmitCycle uint64 `json:"submit"`
	SettleCycle uint64 `json:"settle"`
	// Words counts the 7-bit configuration words of the transaction as
	// transmitted on the wire, region-select envelopes included.
	Words int `json:"words"`
	// Regions counts the configuration regions the transaction touched
	// (1 on single-region platforms; omitted when unknown).
	Regions int `json:"regions,omitempty"`
	// Detail carries a human-readable endpoint description.
	Detail string `json:"detail,omitempty"`
}

// Cycles returns the submit-to-settle duration, the Table III metric.
func (s Span) Cycles() uint64 {
	if s.SettleCycle < s.SubmitCycle {
		return 0
	}
	return s.SettleCycle - s.SubmitCycle
}

// Settled reports whether the transaction has drained.
func (s Span) Settled() bool { return s.SettleCycle != 0 || s.SubmitCycle == 0 }

// Event is one discrete cycle-stamped occurrence (a fault activating, a
// stall being detected, a repair completing).
type Event struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindSeries
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	case kindSeries:
		return "series"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// metricEntry is one named metric with its labels.
type metricEntry struct {
	name   string
	labels []Label
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	series  *Series
}

// key builds the registry map key: name plus sorted labels.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// DefaultMaxEvents bounds a registry's event log.
const DefaultMaxEvents = 65536

// Registry holds every metric, span and event of one platform. Metric
// accessors are get-or-create and may be called at any time; see the
// package comment for the concurrency and determinism contracts.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metricEntry

	spans  []Span
	events []Event
	// MaxEvents caps the event log (oldest dropped); zero selects
	// DefaultMaxEvents. Set it before the run starts.
	MaxEvents int

	dropped uint64 // events discarded over the cap
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metricEntry)}
}

func (r *Registry) entry(name string, labels []Label, k kind, create func() *metricEntry) *metricEntry {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[key]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("telemetry: metric %q registered as %v, requested as %v", key, e.kind, k))
		}
		return e
	}
	e := create()
	r.metrics[key] = e
	return e
}

func copyLabels(labels []Label) []Label {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter returns (creating if needed) the counter with this name and
// label set.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e := r.entry(name, labels, kindCounter, func() *metricEntry {
		return &metricEntry{name: name, labels: copyLabels(labels), kind: kindCounter, counter: &Counter{}}
	})
	return e.counter
}

// Gauge returns (creating if needed) the gauge with this name and label
// set.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e := r.entry(name, labels, kindGauge, func() *metricEntry {
		return &metricEntry{name: name, labels: copyLabels(labels), kind: kindGauge, gauge: &Gauge{}}
	})
	return e.gauge
}

// Histogram returns (creating if needed) the fixed-bucket histogram with
// this name and label set. bounds are upper bucket bounds; nil selects
// DefaultCycleBuckets. Bounds are fixed at first registration.
func (r *Registry) Histogram(name string, bounds []uint64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefaultCycleBuckets
	}
	e := r.entry(name, labels, kindHistogram, func() *metricEntry {
		return &metricEntry{name: name, labels: copyLabels(labels), kind: kindHistogram, hist: newHistogram(bounds)}
	})
	return e.hist
}

// Series returns (creating if needed) the windowed time series with this
// name and label set. window is the sample capacity; 0 selects 256. The
// window is fixed at first registration.
func (r *Registry) Series(name string, window int, labels ...Label) *Series {
	e := r.entry(name, labels, kindSeries, func() *metricEntry {
		return &metricEntry{name: name, labels: copyLabels(labels), kind: kindSeries, series: newSeries(window)}
	})
	return e.series
}

// EmitSpan records a settled (or submitted) configuration transaction.
func (r *Registry) EmitSpan(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

// Emit records one event, dropping the oldest beyond MaxEvents.
func (r *Registry) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	max := r.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	if len(r.events) >= max {
		r.events = r.events[1:]
		r.dropped++
	}
	r.events = append(r.events, e)
}

// Spans returns a copy of all recorded spans, in emission order.
func (r *Registry) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Events returns a copy of the event log, in emission order.
func (r *Registry) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// DroppedEvents returns how many events were discarded over MaxEvents.
func (r *Registry) DroppedEvents() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// sortedEntries snapshots the metric entries in deterministic (key)
// order — the iteration order of every exporter.
func (r *Registry) sortedEntries() []*metricEntry {
	r.mu.Lock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*metricEntry, len(keys))
	for i, k := range keys {
		out[i] = r.metrics[k]
	}
	r.mu.Unlock()
	return out
}

// NumMetrics returns the number of registered metrics.
func (r *Registry) NumMetrics() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metrics)
}
