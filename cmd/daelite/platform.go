package main

// What the platform-running subcommands share: the platform flags, the
// telemetry and tracing exporters, the argument parsers and run hooks.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// platformFlags holds the values of the shared flags registered by
// registerPlatformFlags, whose usage strings document each one.
type platformFlags struct {
	Mesh            string
	Wheel           int
	FastForward     bool
	MetricsAddr     string
	TelemetryOut    string
	TelemetrySample int // <= 0 selects core.DefaultTelemetrySample
	TraceOut        string
	// FlightDump arms the flight recorder: on a trigger (conformance
	// violation, health stall, SIGQUIT) the recent span/event rings dump
	// to <prefix>-<reason>.ndjson and <prefix>-<reason>.trace.json.
	FlightDump string
	Pprof      bool
}

// registerPlatformFlags binds the shared flags to fs with the standard
// defaults. Call before fs.Parse.
func registerPlatformFlags(fs *flag.FlagSet) *platformFlags {
	f := &platformFlags{}
	fs.StringVar(&f.Mesh, "mesh", "4x4", "mesh dimensions WxH")
	fs.IntVar(&f.Wheel, "wheel", 16, "TDM slot-table size")
	fs.BoolVar(&f.FastForward, "fastforward", false, "skip cycles while the platform is quiescent (bit-identical results)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve Prometheus metrics on this address (host:port) during the run")
	fs.StringVar(&f.TelemetryOut, "telemetry-out", "", "write an NDJSON telemetry snapshot to this file at the end of the run")
	fs.IntVar(&f.TelemetrySample, "telemetry-sample", core.DefaultTelemetrySample, "telemetry harvest interval in cycles")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the causal trace (Chrome trace-event JSON) to this file at the end of the run")
	fs.StringVar(&f.FlightDump, "flight-dump", "", "arm the flight recorder; dumps write to <prefix>-<reason>.{ndjson,trace.json}")
	fs.BoolVar(&f.Pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	return f
}

// buildMesh parses -mesh and constructs a mesh platform from the flags.
func (f *platformFlags) buildMesh() (*core.Platform, error) {
	spec, err := parseMesh(f.Mesh)
	if err != nil {
		return nil, err
	}
	params := core.DefaultParams()
	params.Wheel = f.Wheel
	params.FastForward = f.FastForward
	return core.NewMeshPlatform(spec, params, 0, 0)
}

// parseMesh parses a "-mesh WxH" value into a one-NI-per-router mesh.
func parseMesh(s string) (topology.MeshSpec, error) {
	spec := topology.MeshSpec{NIsPerRouter: 1}
	if _, err := fmt.Sscanf(s, "%dx%d", &spec.Width, &spec.Height); err != nil {
		return spec, fmt.Errorf("bad -mesh %q: %w", s, err)
	}
	return spec, nil
}

// parseEnds parses "x1,y1-x2,y2" and checks that both positions are
// routers of m.
func parseEnds(m *topology.Mesh, s string) (a, b [2]int, err error) {
	if _, err := fmt.Sscanf(s, "%d,%d-%d,%d", &a[0], &a[1], &b[0], &b[1]); err != nil {
		return a, b, err
	}
	for _, c := range [][2]int{a, b} {
		if c[1] < 0 || c[1] >= len(m.RouterAt) || c[0] < 0 || c[0] >= len(m.RouterAt[c[1]]) {
			return a, b, fmt.Errorf("router %d,%d outside the %dx%d mesh", c[0], c[1], m.Spec.Width, m.Spec.Height)
		}
	}
	return a, b, nil
}

// parseRoute parses a positional "sx,sy-dx,dy:rest" argument: the first
// NIs of its two routers, checked against m, and rest scanned by format
// into vals, of which at least the first must parse.
func parseRoute(m *topology.Mesh, arg, format string, vals ...any) (src, dst topology.NodeID, err error) {
	ends, rest, _ := strings.Cut(arg, ":")
	a, b, err := parseEnds(m, ends)
	if err != nil {
		return 0, 0, err
	}
	if n, err := fmt.Sscanf(rest, format, vals...); n < 1 {
		return 0, 0, err
	}
	return m.NI(a[0], a[1], 0), m.NI(b[0], b[1], 0), nil
}

// tracingEnabled reports whether any causal-tracing flag was given.
func (f *platformFlags) tracingEnabled() bool {
	return f.TraceOut != "" || f.FlightDump != ""
}

// exporters is the live exporter state of one run. A nil *exporters is
// valid and inert, so callers can unconditionally call close.
type exporters struct {
	Registry *telemetry.Registry
	Tracer   *tracing.Tracer   // nil unless -trace-out or -flight-dump
	Recorder *tracing.Recorder // nil unless -flight-dump

	p        *core.Platform
	srv      *http.Server
	out      string
	traceOut string
	addr     string
	sigDone  func()
	closed   bool
}

// startExporters attaches a telemetry registry to the platform and starts
// the exporters the flags ask for; with none asked for it returns nil and
// the platform runs at zero telemetry cost. Call before opening
// connections so set-up spans are captured, and before stats.NewMonitor
// so the monitor publishes into the same registry. /metrics renders what
// the harvest probe last mirrored, never live simulation state, so
// scraping is race-free while the run steps.
func (f *platformFlags) startExporters(p *core.Platform) (*exporters, error) {
	if f.Pprof && f.MetricsAddr == "" {
		return nil, fmt.Errorf("-pprof requires -metrics-addr")
	}
	if f.MetricsAddr == "" && f.TelemetryOut == "" && !f.tracingEnabled() {
		return nil, nil
	}
	reg := p.Telemetry()
	if reg == nil {
		reg = telemetry.NewRegistry()
		p.AttachTelemetry(reg, f.TelemetrySample)
	}
	e := &exporters{Registry: reg, p: p, out: f.TelemetryOut, traceOut: f.TraceOut}
	if f.MetricsAddr != "" {
		ln, err := net.Listen("tcp", f.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("-metrics-addr: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = telemetry.WritePrometheus(w, reg)
		})
		if f.Pprof {
			// Importing net/http/pprof registers its handlers there.
			mux.Handle("/debug/pprof/", http.DefaultServeMux)
		}
		e.addr = ln.Addr().String()
		e.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
		go func() { _ = e.srv.Serve(ln) }()
	}
	if f.tracingEnabled() {
		e.Tracer = p.Tracer()
		if e.Tracer == nil {
			e.Tracer = tracing.New(tracing.Options{})
			p.AttachTracer(e.Tracer)
		}
		if f.FlightDump != "" {
			e.Recorder = tracing.NewRecorder(e.Tracer, f.FlightDump)
			e.sigDone = armSIGQUIT(e.Recorder)
		}
	}
	return e, nil
}

// armSIGQUIT dumps the flight recorder on SIGQUIT — the classic "what is
// this process doing" signal — and returns a disarm function. The dump
// is written from the signal goroutine; the tracer's rings are
// mutex-guarded, so a concurrent stepping run is safe to snapshot.
func armSIGQUIT(rec *tracing.Recorder) func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			if paths, err := rec.Dump("sigquit"); err == nil && paths != nil {
				fmt.Fprintf(os.Stderr, "flight recorder: dumped %v\n", paths)
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// metricsURL returns the scrape URL of the running endpoint ("" without
// -metrics-addr). Useful with a ":0" listen address.
func (e *exporters) metricsURL() string {
	if e == nil || e.addr == "" {
		return ""
	}
	return "http://" + e.addr + "/metrics"
}

// close finishes the exporters: it forces a final harvest, writes the
// trace and NDJSON snapshots the flags asked for, and shuts the HTTP
// server down gracefully — in-flight scrapes get up to two seconds to
// complete (they see the final harvest), stragglers are cut off. Call
// from the goroutine that stepped the simulation, after the run; calls
// after the first do nothing, so error paths can defer it.
func (e *exporters) close() error {
	if e == nil || e.closed {
		return nil
	}
	e.closed = true
	if e.sigDone != nil {
		e.sigDone()
	}
	e.p.FlushTelemetry()
	var errs []error
	if e.traceOut != "" {
		if err := writeFile(e.traceOut, func(w io.Writer) error { return tracing.WriteChrome(w, e.Tracer) }); err != nil {
			errs = append(errs, fmt.Errorf("-trace-out: %w", err))
		}
	}
	if e.out != "" {
		if err := writeFile(e.out, func(w io.Writer) error { return telemetry.WriteNDJSON(w, e.Registry, e.p.Cycle()) }); err != nil {
			errs = append(errs, fmt.Errorf("-telemetry-out: %w", err))
		}
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := e.srv.Shutdown(ctx); err != nil {
			errs = append(errs, e.srv.Close())
		}
		cancel()
	}
	return errors.Join(errs...)
}

// writeFile creates path, lets write fill it, and closes it, returning
// the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// attachConformance attaches the online invariant checkers to p,
// publishing into its registry (a private one without telemetry), and
// dumps the flight recorder, when armed, on every violation.
func (e *exporters) attachConformance(p *core.Platform) *conformance.Checker {
	reg := p.Telemetry()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	opts := conformance.Options{}
	if e != nil && e.Recorder != nil {
		opts.OnViolation = func(v conformance.Violation) { _, _ = e.Recorder.Dump("conformance-" + v.Check) }
	}
	return conformance.Attach(p, reg, opts)
}

// dumpOnStall dumps the flight recorder, when armed, whenever h declares
// a connection stalled.
func (e *exporters) dumpOnStall(h *core.HealthMonitor) {
	if e != nil && e.Recorder != nil {
		h.OnStall = func(*core.Connection, uint64) { _, _ = e.Recorder.Dump("stall") }
	}
}

// checkFingerprint compares a run's fingerprint against the value
// -expect-fingerprint carried (16 hex digits, optionally 0x-prefixed;
// empty checks nothing). A mismatch is a determinism failure.
func checkFingerprint(got uint64, expect string) error {
	if expect == "" {
		return nil
	}
	want, err := strconv.ParseUint(strings.TrimPrefix(expect, "0x"), 16, 64)
	if err != nil {
		return fmt.Errorf("bad fingerprint %q: %w", expect, err)
	}
	if got != want {
		return fmt.Errorf("determinism fingerprint mismatch: run %016x, expected %016x", got, want)
	}
	return nil
}
