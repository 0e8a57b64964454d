package daelite

// This file re-exports the design-flow and measurement tooling so that
// code importing only the top-level package reaches the full library:
// traffic generation, analytical guarantees, dimensioning, declarative
// platform specs, link monitoring and waveform tracing. The underlying
// implementations live in internal/ packages (see README for the map).

import (
	"io"

	"daelite/internal/alloc"
	"daelite/internal/analysis"
	"daelite/internal/core"
	"daelite/internal/dimension"
	"daelite/internal/fault"
	"daelite/internal/ni"
	"daelite/internal/spec"
	"daelite/internal/stats"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
	"daelite/internal/trace"
	"daelite/internal/traffic"
)

// --- Traffic generation and measurement ---

// Source injects synthetic traffic into an NI channel.
type Source = traffic.Source

// SourceConfig parameterizes a Source (pattern, rate, limit, seed).
type SourceConfig = traffic.SourceConfig

// Sink drains an NI channel and records latency statistics.
type Sink = traffic.Sink

// Traffic patterns.
const (
	// CBR injects at a constant rate.
	CBR = traffic.CBR
	// Bursty alternates idle gaps with back-to-back bursts.
	Bursty = traffic.Bursty
)

// NewSource attaches a traffic source to a connection's source channel.
func NewSource(p *Platform, name string, niID NodeID, channel int, cfg SourceConfig) *Source {
	return traffic.NewSource(p.Sim, name, p.NI(niID), channel, cfg)
}

// NewSink attaches a measuring sink to a connection's destination channel.
func NewSink(p *Platform, name string, niID NodeID, channel int) *Sink {
	return traffic.NewSink(p.Sim, name, p.NI(niID), channel)
}

// Delivery is one word handed to the IP side, with provenance for latency
// measurement.
type Delivery = ni.Delivery

// --- Analytical guarantees ---

// LRServer is the latency-rate abstraction of a connection for
// system-level real-time analysis.
type LRServer = analysis.LRServer

// Guarantees summarizes a unicast connection's hard service guarantees.
type Guarantees = analysis.Guarantees

// GuaranteesOf returns the analytical guarantees of an open unicast
// connection from its slot reservation and the slot advance of its paths
// (worst path for multipath).
func GuaranteesOf(p *Platform, c *Connection) Guarantees {
	return analysis.UnicastGuarantees(p.Mesh.Graph, c.Fwd, p.Params.SlotWords)
}

// --- Dimensioning (requirements -> schedule) ---

// Requirement is one application-level connection demand for the
// dimensioning flow.
type Requirement = dimension.Requirement

// DimensionResult is a complete dimensioning outcome.
type DimensionResult = dimension.Result

// DimensionConfig bounds the dimensioning search.
type DimensionConfig = dimension.Config

// Dimension finds the smallest TDM wheel and slot schedule satisfying
// every requirement. Use the resulting wheel in Params and the slot
// counts in ConnectionSpecs.
func Dimension(m *Mesh, reqs []Requirement, cfg DimensionConfig) (*DimensionResult, error) {
	return dimension.Dimension(m.Graph, reqs, cfg)
}

// Mesh is a built topology with its index helpers (NI/Router lookup).
type Mesh = topology.Mesh

// AllocOptions tune allocator requests directly (advanced use).
type AllocOptions = alloc.Options

// --- Declarative platform specs ---

// PlatformSpec is a JSON-serializable platform description.
type PlatformSpec = spec.Spec

// PlatformInstance is a built spec: platform plus opened connections.
type PlatformInstance = spec.Instance

// ParseSpec reads and validates a JSON platform description.
func ParseSpec(r io.Reader) (*PlatformSpec, error) { return spec.Parse(r) }

// --- Observability ---

// TelemetryRegistry is the deterministic cycle-domain metrics store:
// counters, gauges, histograms and windowed series, plus a bounded ring
// of recent events. It counts configuration spans (config_span*) but does
// not keep them: each connection's set-up span is Connection.Setup.
// Attach one with Platform.AttachTelemetry and export it with
// WritePrometheus or WriteTelemetryNDJSON.
type TelemetryRegistry = telemetry.Registry

// TelemetryLabel is one key=value metric label.
type TelemetryLabel = telemetry.Label

// ConfigSpan is the structured record of one configuration operation
// (set-up, tear-down or repair): submit and settle cycles plus the
// configuration words spent. A connection's set-up span is its Setup
// field.
type ConfigSpan = core.Span

// TelemetryEvent is one discrete occurrence (fault activation, stall
// detection, repair) stamped with its cycle.
type TelemetryEvent = telemetry.Event

// NewTelemetryRegistry creates an empty registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// TelemetryL builds a metric label.
func TelemetryL(key, value string) TelemetryLabel { return telemetry.L(key, value) }

// WritePrometheus renders the registry in Prometheus text exposition
// format. Safe to call while the platform is running.
func WritePrometheus(w io.Writer, r *TelemetryRegistry) error {
	return telemetry.WritePrometheus(w, r)
}

// WriteTelemetryNDJSON writes a newline-delimited JSON snapshot of the
// registry (every metric, then the event ring), stamped with the given
// cycle.
func WriteTelemetryNDJSON(w io.Writer, r *TelemetryRegistry, cycle uint64) error {
	return telemetry.WriteNDJSON(w, r, cycle)
}

// Tracer is the deterministic cycle-domain causal tracer: every
// configuration transaction (and, behind the admission service, every
// request) becomes a tree of spans timestamped in simulation cycles.
// Attach one with Platform.AttachTracer before opening connections;
// a platform without a tracer pays zero cost.
type Tracer = tracing.Tracer

// TracerOptions bound the tracer's span/event rings.
type TracerOptions = tracing.Options

// TraceSpan is one finished span of a causal trace.
type TraceSpan = tracing.Span

// TraceSpanRef names a live span (parent for StartChild, target for
// SetAttr/End/Point). The zero value is "no span".
type TraceSpanRef = tracing.SpanRef

// FlightRecorder dumps the tracer's recent spans and events to files
// when something goes wrong (conformance violation, stall, SIGQUIT).
type FlightRecorder = tracing.Recorder

// NewTracer creates a causal tracer.
func NewTracer(opt TracerOptions) *Tracer { return tracing.New(opt) }

// NewFlightRecorder arms a flight recorder over the tracer; dumps write
// to <prefix>-<reason>.ndjson and <prefix>-<reason>.trace.json.
func NewFlightRecorder(t *Tracer, prefix string) *FlightRecorder {
	return tracing.NewRecorder(t, prefix)
}

// WriteChromeTrace renders the trace as Chrome trace-event JSON —
// loadable in Perfetto / chrome://tracing, byte-identical from run to
// run.
func WriteChromeTrace(w io.Writer, t *Tracer) error { return tracing.WriteChrome(w, t) }

// WriteTraceNDJSON writes the trace as newline-delimited JSON records.
func WriteTraceNDJSON(w io.Writer, t *Tracer) error { return tracing.WriteNDJSON(w, t) }

// SpansByTrace groups finished spans by their trace ID.
func SpansByTrace(spans []TraceSpan) map[uint64][]TraceSpan { return tracing.ByTrace(spans) }

// LinkMonitor samples per-link utilization.
type LinkMonitor = stats.Monitor

// NewLinkMonitor attaches a utilization monitor to a platform.
func NewLinkMonitor(p *Platform) *LinkMonitor { return stats.NewMonitor(p) }

// WaveRecorder records signal waveforms for VCD export.
type WaveRecorder = trace.Recorder

// NewWaveRecorder attaches a waveform recorder to a platform.
func NewWaveRecorder(p *Platform) *WaveRecorder { return trace.New(p.Sim) }

// --- Fault injection and online repair ---

// Fault is one scheduled hardware fault (see internal/fault for the
// models and the determinism contract).
type Fault = fault.Fault

// FaultInjector drives a seeded fault schedule into a platform.
type FaultInjector = fault.Injector

// Fault models.
const (
	// LinkDown kills a data link for the fault window (permanent failure).
	LinkDown = fault.LinkDown
	// PayloadFlip corrupts payload bits crossing a link (soft errors).
	PayloadFlip = fault.PayloadFlip
	// ConfigDrop deletes configuration symbols at the tree root.
	ConfigDrop = fault.ConfigDrop
	// ConfigFlip corrupts configuration symbols at the tree root.
	ConfigFlip = fault.ConfigFlip
	// SlotTableFlip upsets one router slot-table entry.
	SlotTableFlip = fault.SlotTableFlip
)

// InjectFaults attaches a deterministic fault injector to a platform.
func InjectFaults(p *Platform, seed uint64, faults ...Fault) (*FaultInjector, error) {
	return fault.Attach(p, seed, faults...)
}

// HealthMonitor detects stalled connections end to end.
type HealthMonitor = core.HealthMonitor

// NewHealthMonitor attaches a stall detector to a platform; 0 selects the
// default no-progress window.
func NewHealthMonitor(p *Platform, stallTimeout uint64) *HealthMonitor {
	return core.NewHealthMonitor(p, stallTimeout)
}

// RepairResult documents one connection repair and its latency.
type RepairResult = core.RepairResult
