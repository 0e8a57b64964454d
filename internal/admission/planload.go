package admission

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"time"

	"daelite/internal/spec"
	"daelite/internal/workload"
)

// This file is the phase-structured companion of the seeded load driver:
// instead of a random request mix, RunPlan replays an application's
// connection plan — the phases of a compiled workload pack — against a
// running control plane, opening each phase as a burst, tearing it down,
// and reporting per-phase admission outcomes. daelite load's
// -workload mode is the caller.

// coordRef builds a coordinate-addressed NodeRef ("x,y" on the wire).
// A pack's coordinates address routers; the control plane resolves them
// to NIs itself, so only X and Y travel.
func coordRef(c spec.Coord) NodeRef {
	return NodeRef{x: c.X, y: c.Y, coord: true}
}

// PlanPhaseReport is the admission outcome of one phase.
type PlanPhaseReport struct {
	Name     string `json:"name"`
	Conns    int    `json:"conns"`
	Accepted int    `json:"accepted"`
	NoFit    int    `json:"nofit"`
	Quota    int    `json:"quota"`
	Refused  int    `json:"refused"`
	Errors   int    `json:"errors"`
	Closed   int    `json:"closed"`
}

// PlanReport aggregates a plan replay.
type PlanReport struct {
	Tenant   string            `json:"tenant"`
	Phases   []PlanPhaseReport `json:"phases"`
	Requests int               `json:"requests"`
	Accepted int               `json:"accepted"`
	NoFit    int               `json:"nofit"`
	Quota    int               `json:"quota"`
	Refused  int               `json:"refused"`
	Errors   int               `json:"errors"`
	P50us    int64             `json:"p50_us"`
	P99us    int64             `json:"p99_us"`
}

// String renders the report for terminals.
func (r *PlanReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "plan replay as tenant %q: %d requests, accepted=%d nofit=%d quota=%d refused=%d errors=%d\n",
		r.Tenant, r.Requests, r.Accepted, r.NoFit, r.Quota, r.Refused, r.Errors)
	fmt.Fprintf(&b, "latency p50=%dus p99=%dus\n", r.P50us, r.P99us)
	for _, ph := range r.Phases {
		fmt.Fprintf(&b, "  %-24s conns=%d accepted=%d nofit=%d quota=%d refused=%d errors=%d closed=%d\n",
			ph.Name, ph.Conns, ph.Accepted, ph.NoFit, ph.Quota, ph.Refused, ph.Errors, ph.Closed)
	}
	return b.String()
}

// RunPlan replays a compiled pack's connection plan against the service
// at cfg.BaseURL as a single tenant (cfg.Tenants[0], or the service's
// first advertised tenant). Phases run strictly in order — an
// application's broadcast phase cannot overlap its activation phase —
// and each phase's accepted connections are torn down at its end,
// exactly like the pack runner does against the in-process platform.
func RunPlan(cfg LoadConfig, c *workload.Compiled) (*PlanReport, error) {
	cfg = cfg.withDefaults()
	shape, err := discoverShape(cfg.Client, cfg.BaseURL)
	if err != nil {
		return nil, err
	}
	var tenant string
	switch {
	case len(cfg.Tenants) > 1:
		return nil, fmt.Errorf("load: a plan replay drives exactly one tenant, got %v", cfg.Tenants)
	case len(cfg.Tenants) == 1:
		tenant = cfg.Tenants[0]
		if _, ok := shape.weights[tenant]; !ok {
			return nil, fmt.Errorf("load: service does not know tenant %q", tenant)
		}
	default:
		names := make([]string, 0, len(shape.weights))
		for n := range shape.weights {
			names = append(names, n)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("load: service has no tenants")
		}
		sort.Strings(names)
		tenant = names[0]
	}

	rep := &PlanReport{Tenant: tenant}
	var latencies []int64
	for _, ph := range c.Phases {
		pr := PlanPhaseReport{Name: ph.Name, Conns: len(ph.Conns)}
		var handles []uint64
		for _, cn := range ph.Conns {
			req := OpenRequest{Tenant: tenant, Src: coordRef(cn.Src), SlotsFwd: cn.Slots}
			if cn.Dst != nil {
				req.Dst = coordRef(*cn.Dst)
			}
			for _, d := range cn.Dsts {
				req.Dsts = append(req.Dsts, coordRef(d))
			}
			start := time.Now()
			status, body, err := doPost(cfg, "/v1/connections", req)
			latencies = append(latencies, time.Since(start).Microseconds())
			rep.Requests++
			switch {
			case err != nil:
				pr.Errors++
			case status == http.StatusOK:
				pr.Accepted++
				if h, ok := body["handle"].(float64); ok {
					handles = append(handles, uint64(h))
				}
			case status == http.StatusConflict:
				pr.NoFit++
			case status == http.StatusTooManyRequests:
				pr.Quota++
			case status == http.StatusServiceUnavailable:
				pr.Refused++
			default:
				pr.Errors++
			}
		}
		for _, h := range handles {
			start := time.Now()
			status, _, err := doClose(cfg, tenant, h, false)
			latencies = append(latencies, time.Since(start).Microseconds())
			rep.Requests++
			if err != nil || status != http.StatusOK {
				pr.Errors++
				continue
			}
			pr.Closed++
		}
		rep.Accepted += pr.Accepted
		rep.NoFit += pr.NoFit
		rep.Quota += pr.Quota
		rep.Refused += pr.Refused
		rep.Errors += pr.Errors
		rep.Phases = append(rep.Phases, pr)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50us = percentile(latencies, 50)
	rep.P99us = percentile(latencies, 99)
	return rep, nil
}
