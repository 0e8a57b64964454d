package experiments

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"daelite/internal/admission"
	"daelite/internal/core"
	"daelite/internal/report"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

// E19 — control-plane service soak: admission under multi-tenant load.
//
// E17 measures the raw batch admission engine; E19 measures the served
// system built on top of it: the daelite admd control plane taking
// set-up/teardown/what-if requests over HTTP from concurrent tenants of
// different QoS classes, with quotas, DRR fairness, journal and
// snapshot. The experiment starts the service in-process on a loopback
// listener, drives it with the seeded load driver, and reports
// acceptance rate, admission latency percentiles, Jain's fairness index
// over weighted acceptance, and sustained requests/sec — then kills the
// service and replays its journal into a fresh platform to verify the
// restart reconstructs the exact allocator fingerprint (the durability
// claim behind fast reconfiguration between use-cases).
//
// Requests/sec and latency numbers are wall-clock and machine-dependent,
// so E19 is excluded from the golden experiment output and runs only
// when selected (daelite bench -experiment E19).
func ControlPlaneSoak() (*Result, error) {
	const (
		meshW, meshH = 4, 4
		requests     = 4000
		concurrency  = 8
		seed         = 0xda31
	)
	res := newResult("E19", "control-plane admission service under multi-tenant load")

	tenants := []admission.TenantConfig{
		{Name: "gold", Class: admission.Gold, MaxSlots: 48},
		{Name: "silver", Class: admission.Silver, MaxSlots: 32},
		{Name: "bronze-a", Class: admission.Bronze, MaxSlots: 24},
		{Name: "bronze-b", Class: admission.Bronze, MaxSlots: 24},
	}
	build := func() (*core.Platform, error) {
		return core.NewMeshPlatform(topology.MeshSpec{Width: meshW, Height: meshH, NIsPerRouter: 1},
			core.DefaultParams(), 0, 0)
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "daelite-e19-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal.ndjson")
	snapshot := filepath.Join(dir, "snapshot.json")
	svc, err := admission.NewService(p, telemetry.NewRegistry(), admission.Config{
		Tenants:       tenants,
		JournalPath:   journal,
		SnapshotPath:  snapshot,
		SnapshotEvery: 64,
	})
	if err != nil {
		return nil, err
	}
	svc.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() { _ = srv.Serve(ln) }()

	start := time.Now()
	load, err := admission.RunLoad(admission.LoadConfig{
		BaseURL:     "http://" + ln.Addr().String(),
		Requests:    requests,
		Concurrency: concurrency,
		Seed:        seed,
		Retry503:    true,
	})
	elapsed := time.Since(start)
	closeErr := srv.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	if load.Errors > 0 {
		return nil, fmt.Errorf("experiments: E19 load run had %d failed requests", load.Errors)
	}
	if err := svc.Stop(); err != nil {
		return nil, err
	}
	fp, _, seq := svc.Fingerprint()

	// Durability leg: a fresh platform restored from the snapshot +
	// journal must land on the same allocator fingerprint.
	p2, err := build()
	if err != nil {
		return nil, err
	}
	svc2, err := admission.NewService(p2, telemetry.NewRegistry(), admission.Config{
		Tenants:      tenants,
		JournalPath:  journal,
		SnapshotPath: snapshot,
	})
	if err != nil {
		return nil, err
	}
	rep, err := svc2.Restore()
	if err != nil {
		return nil, fmt.Errorf("experiments: E19 restore: %w", err)
	}
	if err := svc2.Stop(); err != nil {
		return nil, err
	}
	if rep.Fingerprint != fp {
		return nil, fmt.Errorf("experiments: E19 restored fingerprint %016x != live %016x", rep.Fingerprint, fp)
	}

	rps := float64(load.Requests) / elapsed.Seconds()
	t := report.NewTable(fmt.Sprintf("E19 — %d requests, %d workers, %dx%d mesh, 4 tenants (seed %#x)",
		requests, concurrency, meshW, meshH, seed),
		"Tenant", "Weight", "Sent", "Accepted", "No fit", "Quota", "Refused")
	for _, name := range []string{"gold", "silver", "bronze-a", "bronze-b"} {
		tl := load.PerTenant[name]
		if tl == nil {
			continue
		}
		t.AddRow(name, tl.Weight, tl.Sent, tl.Accepted, tl.NoFit, tl.Quota, tl.Refused)
	}
	var sb strings.Builder
	sb.WriteString(t.Render())
	sb.WriteString(fmt.Sprintf("\nacceptance %.1f%%, p50 %dus, p99 %dus, fairness %.3f, %.0f req/s\n",
		100*load.AcceptanceRate(), load.P50us, load.P99us, load.Fairness, rps))
	sb.WriteString(fmt.Sprintf("restart replay: %d conns adopted + %d journal records -> fingerprint %016x reproduced at seq %d\n",
		rep.AdoptedConns, rep.ReplayedRecords, fp, seq))
	res.Text = sb.String()

	res.Metrics["acceptance_rate"] = load.AcceptanceRate()
	res.Metrics["p50_us"] = float64(load.P50us)
	res.Metrics["p99_us"] = float64(load.P99us)
	res.Metrics["fairness"] = load.Fairness
	res.Metrics["requests_per_sec"] = rps
	res.Metrics["replayed_records"] = float64(rep.ReplayedRecords)
	return res, nil
}
