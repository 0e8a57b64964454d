package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"daelite/internal/admission"
)

// runLoad drives a running admd with a seeded mix of set-ups (unicast and
// multicast), teardowns and what-if probes across tenants, and reports
// per-tenant acceptance, rejections, set-up latency percentiles and
// Jain's fairness index. The mix is a pure function of -seed and the
// daemon's shape. The run fails on any transport error or unexpected
// HTTP status; quota (429), capacity (409) and backpressure (503)
// rejections are expected outcomes.
//
//	daelite admd -mesh 4x4 -listen 127.0.0.1:8377 &
//	daelite load -url http://127.0.0.1:8377 -requests 100000 -concurrency 8 -seed 7
//
// With -workload the driver replays a pack's connection plan instead,
// phase by phase; the daemon's mesh must match the pack's.
func runLoad(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	var cfg admission.LoadConfig
	var jsonOut, workloadPath string
	fs.StringVar(&cfg.BaseURL, "url", "http://127.0.0.1:8377", "base URL of the daelite-admd instance")
	fs.IntVar(&cfg.Requests, "requests", 10000, "total requests to issue")
	fs.IntVar(&cfg.Concurrency, "concurrency", 4, "concurrent workers")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "workload seed (same seed + same daemon shape = same workload)")
	fs.IntVar(&cfg.MaxSlotsFwd, "max-slots", 3, "max forward slots per set-up request")
	fs.Float64Var(&cfg.MulticastFrac, "multicast-frac", 0.15, "fraction of set-ups that are multicast")
	fs.Float64Var(&cfg.TeardownFrac, "teardown-frac", 0.3, "fraction of requests that tear down an open connection")
	fs.Float64Var(&cfg.WhatIfFrac, "whatif-frac", 0.1, "fraction of requests that are read-only what-if probes")
	fs.BoolVar(&cfg.Retry503, "retry", true, "retry requests refused with 503 backpressure")
	fs.IntVar(&cfg.TraceSample, "trace-sample", 0, "trace every Nth request end-to-end and report the per-stage cycle breakdown (0 = off)")
	fs.StringVar(&jsonOut, "json", "", "also write the report as JSON to this file (- for stdout)")
	fs.StringVar(&workloadPath, "workload", "", "replay this workload pack's connection plan against the daemon instead of the random mix")
	if err := parse(fs, argv); err != nil {
		return err
	}
	cfg.Tenants = fs.Args() // optional subset; empty = all advertised tenants

	var rep any
	var failed int
	if workloadPath == "" {
		start := time.Now()
		r, err := admission.RunLoad(cfg)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprint(stdout, r.String())
		fmt.Fprintf(stdout, "wall time: %s (%.0f req/s)\n", elapsed.Round(time.Millisecond),
			float64(r.Requests)/elapsed.Seconds())
		rep, failed = r, r.Errors
	} else {
		// Replay the pack's phase plan as one tenant, lowered to
		// admission-plane requests (coordinates address routers; the
		// daemon resolves them to NIs).
		wc, err := loadWorkload(workloadPath)
		if err != nil {
			return err
		}
		start := time.Now()
		r, err := admission.RunPlan(cfg, wc)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(stdout, "workload %s: %d phases\n", wc.Name(), len(wc.Phases))
		fmt.Fprint(stdout, r.String())
		fmt.Fprintf(stdout, "wall time: %s\n", elapsed.Round(time.Millisecond))
		rep, failed = r, r.Errors
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if jsonOut == "-" {
			_, err = stdout.Write(data)
		} else {
			err = os.WriteFile(jsonOut, data, 0o644)
		}
		if err != nil {
			return fmt.Errorf("-json: %w", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d request(s) failed", failed)
	}
	return nil
}
