// Command daelite-admd is the admission control-plane daemon: it owns a
// virtual daelite NoC platform and serves connection set-up, teardown
// and what-if queries over HTTP (JSON), with per-tenant QoS classes,
// slot/connection quotas, deficit-round-robin fairness under overload,
// and durable state (snapshot + request journal) that survives restarts
// bit-for-bit — the restored allocator occupancy is verified against
// the recorded fingerprint.
//
//	daelite-admd -mesh 4x4 -listen 127.0.0.1:8377 \
//	    -tenants "alpha:gold:40,beta:silver:30,gamma:bronze:20" \
//	    -journal /var/tmp/daelite.journal -snapshot /var/tmp/daelite.snapshot
//
// Then:
//
//	curl -s localhost:8377/v1/connections -d '{"tenant":"alpha","src":"0,0","dst":"3,2","slots_fwd":2}'
//	curl -s localhost:8377/v1/whatif      -d '{"tenant":"beta","src":"1,1","dst":"2,3","slots_fwd":4}'
//	curl -s -X DELETE 'localhost:8377/v1/connections/1?tenant=alpha'
//	curl -s localhost:8377/v1/fingerprint
//
// SIGINT/SIGTERM drains the queue, writes a final snapshot and stops
// the endpoints cleanly; a second signal force-exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"daelite/internal/admission"
	"daelite/internal/cli"
	"daelite/internal/conformance"
	"daelite/internal/telemetry"
)

func main() {
	var listen, tenantsArg, tenantsFile, journal, snapshot string
	var snapshotEvery uint64
	var maxBatch, queueDepth int
	var gatherWindow time.Duration
	var restore, conform bool
	pf := cli.RegisterPlatformFlags(flag.CommandLine)
	flag.StringVar(&listen, "listen", "127.0.0.1:8377", "HTTP listen address")
	flag.StringVar(&tenantsArg, "tenants", "alpha:gold,beta:silver,gamma:bronze,delta:bronze",
		"tenant list name:class[:maxslots[:maxconns]],...")
	flag.StringVar(&tenantsFile, "tenants-file", "", "JSON file with the tenant list (overrides -tenants)")
	flag.StringVar(&journal, "journal", "", "append the request journal (NDJSON) here")
	flag.StringVar(&snapshot, "snapshot", "", "write durable snapshots here")
	flag.Uint64Var(&snapshotEvery, "snapshot-every", 256, "auto-snapshot every N mutating ticks (0 = shutdown only)")
	flag.IntVar(&maxBatch, "max-batch", 32, "max set-up requests admitted per tick")
	flag.IntVar(&queueDepth, "queue-depth", 64, "default per-tenant pending-request bound")
	flag.DurationVar(&gatherWindow, "gather-window", 200*time.Microsecond, "how long a tick waits to batch arrivals")
	flag.BoolVar(&restore, "restore", true, "restore state from -snapshot/-journal at start")
	flag.BoolVar(&conform, "conformance", false, "attach the online conformance checkers to the platform")
	flag.Parse()

	tenants, err := parseTenants(tenantsArg, tenantsFile)
	if err != nil {
		fatal("%v", err)
	}

	p, err := pf.BuildMesh()
	if err != nil {
		fatal("%v", err)
	}
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, pf.TelemetrySample)
	// The service handler serves /metrics itself; StartExporters adds the
	// optional standalone scrape endpoint (-metrics-addr), the final
	// NDJSON telemetry snapshot (-telemetry-out), and the causal tracer /
	// flight recorder (-trace-out / -flight-dump), reusing the registry
	// attached above. Started before the service and checkers so both can
	// hook the tracer and recorder.
	exp, err := pf.StartExporters(p)
	if err != nil {
		fatal("%v", err)
	}

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
		TraceAll: pf.TracingEnabled(),
	})
	if err != nil {
		fatal("%v", err)
	}
	var ck *conformance.Checker
	if conform {
		opts := conformance.Options{}
		if exp != nil && exp.Recorder != nil {
			rec := exp.Recorder
			opts.OnViolation = func(v conformance.Violation) {
				_, _ = rec.Dump("conformance-" + v.Check)
			}
		}
		ck = conformance.Attach(p, reg, opts)
	}
	if restore && (snapshot != "" || journal != "") {
		rep, err := s.Restore()
		if err != nil {
			fatal("restore: %v", err)
		}
		if rep.AdoptedConns > 0 || rep.ReplayedRecords > 0 {
			fmt.Printf("restored: %d connections from snapshot (seq %d), %d journal records replayed (%d opens, %d closes), fingerprint %016x\n",
				rep.AdoptedConns, rep.SnapshotSeq, rep.ReplayedRecords, rep.ReplayedOpens, rep.ReplayedCloses, rep.Fingerprint)
		}
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal("-listen: %v", err)
	}
	s.Start()
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	fp, _, _ := s.Fingerprint()
	fmt.Printf("daelite-admd serving on http://%s (mesh %s, wheel %d, %d tenants, fingerprint %016x)\n",
		ln.Addr(), pf.Mesh, pf.Wheel, len(tenants), fp)

	ctx, cancel := cli.ShutdownContext()
	defer cancel()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fatal("serve: %v", err)
	}

	// Drain: stop taking requests, let the service answer everything
	// queued, write the final snapshot, close the journal.
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = srv.Shutdown(shCtx)
	shCancel()
	if err := s.Stop(); err != nil {
		fatal("stop: %v", err)
	}
	fp, _, seq := s.Fingerprint()
	fmt.Printf("drained: fingerprint %016x, journal seq %d\n", fp, seq)
	if err := exp.Close(); err != nil {
		fatal("telemetry: %v", err)
	}
	if ck != nil {
		if v := ck.Violations(); v != 0 {
			fatal("%d conformance violations during this run", v)
		}
		fmt.Println("conformance: no violations")
	}
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

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "daelite-admd: "+format+"\n", args...)
	os.Exit(1)
}
