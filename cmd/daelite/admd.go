package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"daelite/internal/admission"
	"daelite/internal/conformance"
	"daelite/internal/telemetry"
)

// runAdmd is the admission control-plane daemon: it owns a virtual NoC
// platform and serves connection set-up, teardown and what-if queries over
// HTTP (JSON) with per-tenant QoS classes, quotas, deficit-round-robin
// fairness, and durable state (snapshot + request journal) that restores
// bit-for-bit, verified against the recorded fingerprint.
//
//	daelite admd -mesh 4x4 -listen 127.0.0.1:8377 -journal j.ndjson -snapshot s.json
//	curl -s localhost:8377/v1/connections -d '{"tenant":"alpha","src":"0,0","dst":"3,2","slots_fwd":2}'
//
// SIGINT/SIGTERM drains the queue, writes a final snapshot and stops
// the endpoints cleanly; a second signal force-exits.
func runAdmd(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	var listen, tenantsArg, tenantsFile, journal, snapshot string
	var snapshotEvery uint64
	var maxBatch, queueDepth int
	var gatherWindow time.Duration
	var restore, conform bool
	pf := registerPlatformFlags(fs)
	fs.StringVar(&listen, "listen", "127.0.0.1:8377", "HTTP listen address")
	fs.StringVar(&tenantsArg, "tenants", "alpha:gold,beta:silver,gamma:bronze,delta:bronze",
		"tenant list name:class[:maxslots[:maxconns]],...")
	fs.StringVar(&tenantsFile, "tenants-file", "", "JSON file with the tenant list (overrides -tenants)")
	fs.StringVar(&journal, "journal", "", "append the request journal (NDJSON) here")
	fs.StringVar(&snapshot, "snapshot", "", "write durable snapshots here")
	fs.Uint64Var(&snapshotEvery, "snapshot-every", 256, "auto-snapshot every N mutating ticks (0 = shutdown only)")
	fs.IntVar(&maxBatch, "max-batch", 32, "max set-up requests admitted per tick")
	fs.IntVar(&queueDepth, "queue-depth", 64, "default per-tenant pending-request bound")
	fs.DurationVar(&gatherWindow, "gather-window", 200*time.Microsecond, "how long a tick waits to batch arrivals")
	fs.BoolVar(&restore, "restore", true, "restore state from -snapshot/-journal at start")
	fs.BoolVar(&conform, "conformance", false, "attach the online conformance checkers to the platform")
	if err := parse(fs, argv); err != nil {
		return err
	}

	tenants, err := parseTenants(tenantsArg, tenantsFile)
	if err != nil {
		return err
	}
	p, err := pf.buildMesh()
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, pf.TelemetrySample)
	// The service serves /metrics itself; the exporters reuse its
	// registry, and start before the service and checkers so both can
	// hook the tracer and flight recorder.
	exp, err := pf.startExporters(p)
	if err != nil {
		return err
	}
	defer exp.close()

	s, err := admission.NewService(p, reg, admission.Config{
		Tenants:           tenants,
		MaxBatch:          maxBatch,
		GatherWindow:      gatherWindow,
		DefaultQueueDepth: queueDepth,
		JournalPath:       journal,
		SnapshotPath:      snapshot,
		SnapshotEvery:     snapshotEvery,
		// With the tracer attached, trace every request end-to-end;
		// clients can still opt in per request with "trace": true.
		TraceAll: pf.tracingEnabled(),
	})
	if err != nil {
		return err
	}
	defer func() { _ = s.Stop() }() // no-op after the drain below; closes the journal on early returns
	var ck *conformance.Checker
	if conform {
		ck = exp.attachConformance(p)
	}
	if restore && (snapshot != "" || journal != "") {
		rep, err := s.Restore()
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if rep.AdoptedConns > 0 || rep.ReplayedRecords > 0 {
			fmt.Fprintf(stdout, "restored: %d connections from snapshot (seq %d), %d journal records replayed (%d opens, %d closes), fingerprint %016x\n",
				rep.AdoptedConns, rep.SnapshotSeq, rep.ReplayedRecords, rep.ReplayedOpens, rep.ReplayedCloses, rep.Fingerprint)
		}
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	s.Start()
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	fp, _, _ := s.Fingerprint()
	fmt.Fprintf(stdout, "daelite-admd serving on http://%s (mesh %s, wheel %d, %d tenants, fingerprint %016x)\n",
		ln.Addr(), pf.Mesh, pf.Wheel, len(tenants), fp)

	ctx, stop := onSignal(stderr)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	// Drain: stop taking requests, let the service answer everything
	// queued, write the final snapshot, close the journal.
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = srv.Shutdown(shCtx)
	shCancel()
	if err := s.Stop(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	fp, _, seq := s.Fingerprint()
	fmt.Fprintf(stdout, "drained: fingerprint %016x, journal seq %d\n", fp, seq)
	if err := exp.close(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if ck != nil {
		if v := ck.Violations(); v != 0 {
			return fmt.Errorf("%d conformance violations during this run", v)
		}
		fmt.Fprintln(stdout, "conformance: no violations")
	}
	return nil
}

// parseTenants reads -tenants-file (a JSON array of admission
// TenantConfig) or the compact -tenants form name:class[:slots[:conns]].
func parseTenants(arg, file string) ([]admission.TenantConfig, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("-tenants-file: %w", err)
		}
		var out []admission.TenantConfig
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, fmt.Errorf("-tenants-file: %w", err)
		}
		return out, nil
	}
	var out []admission.TenantConfig
	for _, item := range strings.Split(arg, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		tc := admission.TenantConfig{Name: parts[0], Class: admission.Bronze}
		if len(parts) > 1 && parts[1] != "" {
			tc.Class = admission.Class(parts[1])
		}
		var err error
		if len(parts) > 2 && parts[2] != "" {
			if tc.MaxSlots, err = strconv.Atoi(parts[2]); err != nil {
				return nil, fmt.Errorf("-tenants %q: bad maxslots: %w", item, err)
			}
		}
		if len(parts) > 3 && parts[3] != "" {
			if tc.MaxConns, err = strconv.Atoi(parts[3]); err != nil {
				return nil, fmt.Errorf("-tenants %q: bad maxconns: %w", item, err)
			}
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-tenants: empty tenant list")
	}
	return out, nil
}
