package admission

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"daelite/internal/sim"
)

// This file is the seeded load driver behind daelite load and the
// race-mode soak test: a deterministic mixed open/teardown/what-if
// workload against a running control plane, reporting acceptance,
// latency percentiles and cross-tenant fairness. It talks plain HTTP so the
// same driver exercises an in-process handler (tests, benchmarks) or a
// daemon across the network.

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// Tenants are the tenant names to drive; empty drives every tenant
	// the service reports.
	Tenants []string
	// Requests is the total number of requests to send (default 1000).
	Requests int
	// Concurrency is the number of parallel clients (default 4).
	Concurrency int
	// Seed makes the workload reproducible.
	Seed uint64
	// MaxSlotsFwd bounds the random per-request forward slots (default 3).
	MaxSlotsFwd int
	// MulticastFrac is the fraction of opens that are multicast trees
	// (default 0.15), TeardownFrac the fraction of requests that tear an
	// open connection down (default 0.3), WhatIfFrac the fraction that
	// are read-only feasibility checks (default 0.1).
	MulticastFrac, TeardownFrac, WhatIfFrac float64
	// Retry503 retries backpressured requests (with the server's
	// Retry-After hint capped to 5ms per attempt) instead of counting
	// them refused.
	Retry503 bool
	// TraceSample, when N > 0, marks every Nth request for end-to-end
	// causal tracing (OpenRequest.Trace / ?trace=1); the service then
	// returns a per-stage cycle breakdown on accepted opens, which the
	// report aggregates next to the latency percentiles. Which request
	// indices are traced is a pure function of (Requests, TraceSample),
	// independent of Concurrency.
	TraceSample int
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.MaxSlotsFwd <= 0 {
		c.MaxSlotsFwd = 3
	}
	if c.MulticastFrac == 0 {
		c.MulticastFrac = 0.15
	}
	if c.TeardownFrac == 0 {
		c.TeardownFrac = 0.3
	}
	if c.WhatIfFrac == 0 {
		c.WhatIfFrac = 0.1
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// TenantLoad is one tenant's slice of a load report.
type TenantLoad struct {
	Sent     int `json:"sent"`
	Accepted int `json:"accepted"`
	NoFit    int `json:"nofit"`
	Quota    int `json:"quota"`
	Refused  int `json:"refused"`
	Errors   int `json:"errors"`
	// Weight is the tenant's DRR weight, used for the fairness index.
	Weight int `json:"weight"`
}

// LoadReport is the outcome of RunLoad.
type LoadReport struct {
	Requests int `json:"requests"`
	Accepted int `json:"accepted"`
	NoFit    int `json:"nofit"`
	Quota    int `json:"quota"`
	Refused  int `json:"refused"`
	Errors   int `json:"errors"`

	// P50us/P99us are client-observed request latencies in microseconds.
	P50us int64 `json:"p50_us"`
	P99us int64 `json:"p99_us"`

	// Fairness is Jain's index over per-tenant weight-normalized
	// accepted-open throughput: 1.0 = perfectly proportional shares,
	// 1/n = one tenant got everything.
	Fairness float64 `json:"fairness"`

	// TracedOpens counts accepted opens that came back with a per-stage
	// cycle breakdown (requires TraceSample and a service-side tracer);
	// Stages summarizes each pipeline stage over those opens, in cycles.
	TracedOpens int                  `json:"traced_opens,omitempty"`
	Stages      map[string]StageStat `json:"stages,omitempty"`

	PerTenant map[string]*TenantLoad `json:"per_tenant"`

	// BadStatus counts the responses behind Errors by HTTP status
	// (status 0 = transport or decode failure) — the first place to
	// look when a run reports errors.
	BadStatus map[int]int `json:"bad_status,omitempty"`
}

// StageStat summarizes one admission-pipeline stage (queue wait, config
// inject, tree settle, end-to-end total) over the traced accepted opens
// of a load run. Values are simulation cycles, not wall time.
type StageStat struct {
	P50 int64 `json:"p50_cycles"`
	P99 int64 `json:"p99_cycles"`
}

// AcceptanceRate is accepted requests over all requests sent.
func (r *LoadReport) AcceptanceRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(r.Requests)
}

// String renders the report for terminals.
func (r *LoadReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "requests=%d accepted=%d (%.1f%%) nofit=%d quota=%d refused=%d errors=%d\n",
		r.Requests, r.Accepted, 100*r.AcceptanceRate(), r.NoFit, r.Quota, r.Refused, r.Errors)
	fmt.Fprintf(&b, "latency p50=%dus p99=%dus  fairness=%.3f\n", r.P50us, r.P99us, r.Fairness)
	if r.TracedOpens > 0 {
		fmt.Fprintf(&b, "stages over %d traced opens (cycles):", r.TracedOpens)
		for _, name := range []string{"queue", "inject", "settle", "total"} {
			if st, ok := r.Stages[name]; ok {
				fmt.Fprintf(&b, "  %s p50=%d p99=%d", name, st.P50, st.P99)
			}
		}
		b.WriteByte('\n')
	}
	if len(r.BadStatus) > 0 {
		codes := make([]int, 0, len(r.BadStatus))
		for c := range r.BadStatus {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "  unexpected status %d: %d\n", c, r.BadStatus[c])
		}
	}
	names := make([]string, 0, len(r.PerTenant))
	for n := range r.PerTenant {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := r.PerTenant[n]
		fmt.Fprintf(&b, "  %-10s w=%d sent=%d accepted=%d nofit=%d quota=%d refused=%d\n",
			n, t.Weight, t.Sent, t.Accepted, t.NoFit, t.Quota, t.Refused)
	}
	return b.String()
}

// serviceShape is what the driver learns from the service before
// driving it.
type serviceShape struct {
	width, height int
	weights       map[string]int
}

func discoverShape(client *http.Client, base string) (*serviceShape, error) {
	var info struct {
		Mesh string `json:"mesh"`
	}
	if err := getJSON(client, base+"/v1/info", &info); err != nil {
		return nil, fmt.Errorf("load: discover service: %w", err)
	}
	shape := &serviceShape{weights: map[string]int{}}
	if _, err := fmt.Sscanf(info.Mesh, "%dx%d", &shape.width, &shape.height); err != nil {
		return nil, fmt.Errorf("load: bad mesh %q in /v1/info", info.Mesh)
	}
	var tl struct {
		Tenants []TenantInfo `json:"tenants"`
	}
	if err := getJSON(client, base+"/v1/tenants", &tl); err != nil {
		return nil, fmt.Errorf("load: discover tenants: %w", err)
	}
	for _, t := range tl.Tenants {
		shape.weights[t.Name] = t.Weight
	}
	return shape, nil
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// RunLoad drives the service at cfg.BaseURL with a seeded mixed
// workload and returns the aggregate report. Each worker gets an
// independent RNG derived from the seed, so a run is reproducible for a
// fixed (Seed, Concurrency, Requests) triple.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	shape, err := discoverShape(cfg.Client, cfg.BaseURL)
	if err != nil {
		return nil, err
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		for n := range shape.weights {
			tenants = append(tenants, n)
		}
		sort.Strings(tenants)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("load: service has no tenants")
	}
	for _, n := range tenants {
		if _, ok := shape.weights[n]; !ok {
			return nil, fmt.Errorf("load: service does not know tenant %q", n)
		}
	}

	report := &LoadReport{PerTenant: map[string]*TenantLoad{}}
	for _, n := range tenants {
		report.PerTenant[n] = &TenantLoad{Weight: shape.weights[n]}
	}
	var mu sync.Mutex // guards report, latencies and stageCycles
	var latencies []int64
	stageCycles := map[string][]int64{}

	var remaining atomic.Int64
	remaining.Store(int64(cfg.Requests))

	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := sim.NewRNG(cfg.Seed ^ (uint64(worker)+1)*0x9e3779b97f4a7c15)
			var handles []struct {
				h      uint64
				tenant string
			}
			for {
				// The countdown both bounds the run and numbers each
				// request: the values are distinct across workers, so
				// "every Nth" tracing picks the same request count no
				// matter how the workers interleave.
				seq := remaining.Add(-1)
				if seq < 0 {
					break
				}
				traced := cfg.TraceSample > 0 && seq%int64(cfg.TraceSample) == 0
				tenant := tenants[rng.Intn(len(tenants))]
				kind := "open"
				roll := rng.Float64()
				switch {
				case roll < cfg.TeardownFrac && len(handles) > 0:
					kind = "teardown"
				case roll < cfg.TeardownFrac+cfg.WhatIfFrac:
					kind = "whatif"
				}

				var (
					status int
					body   map[string]any
					err    error
				)
				start := time.Now()
				switch kind {
				case "teardown":
					idx := rng.Intn(len(handles))
					hc := handles[idx]
					handles[idx] = handles[len(handles)-1]
					handles = handles[:len(handles)-1]
					tenant = hc.tenant
					status, body, err = doClose(cfg, hc.tenant, hc.h, traced)
				default:
					req := randomOpen(rng, shape, tenant, cfg)
					req.Trace = traced
					path := "/v1/connections"
					if kind == "whatif" {
						path = "/v1/whatif"
					}
					status, body, err = doPost(cfg, path, req)
				}
				lat := time.Since(start).Microseconds()

				mu.Lock()
				tl := report.PerTenant[tenant]
				tl.Sent++
				report.Requests++
				latencies = append(latencies, lat)
				switch {
				case err != nil:
					tl.Errors++
					report.Errors++
					if report.BadStatus == nil {
						report.BadStatus = map[int]int{}
					}
					report.BadStatus[0]++
				case status == http.StatusOK:
					tl.Accepted++
					report.Accepted++
					if kind == "open" {
						if h, ok := body["handle"].(float64); ok {
							handles = append(handles, struct {
								h      uint64
								tenant string
							}{uint64(h), tenant})
						}
						if st, ok := body["stages"].(map[string]any); ok {
							report.TracedOpens++
							for k, v := range st {
								if f, ok := v.(float64); ok {
									k = strings.TrimSuffix(k, "_cycles")
									stageCycles[k] = append(stageCycles[k], int64(f))
								}
							}
						}
					}
				case status == http.StatusConflict:
					tl.NoFit++
					report.NoFit++
				case status == http.StatusTooManyRequests:
					tl.Quota++
					report.Quota++
				case status == http.StatusServiceUnavailable:
					tl.Refused++
					report.Refused++
				default:
					tl.Errors++
					report.Errors++
					if report.BadStatus == nil {
						report.BadStatus = map[int]int{}
					}
					report.BadStatus[status]++
				}
				mu.Unlock()
			}
			// Leave remaining connections open: steady-state occupancy is
			// part of what the soak exercises.
		}(w)
	}
	wg.Wait()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	report.P50us = percentile(latencies, 50)
	report.P99us = percentile(latencies, 99)
	report.Fairness = jainIndex(report)
	if len(stageCycles) > 0 {
		report.Stages = map[string]StageStat{}
		for name, vals := range stageCycles {
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			report.Stages[name] = StageStat{P50: percentile(vals, 50), P99: percentile(vals, 99)}
		}
	}
	return report, nil
}

// randomOpen builds a random open/what-if request over the mesh.
func randomOpen(rng *sim.RNG, shape *serviceShape, tenant string, cfg LoadConfig) OpenRequest {
	nodes := shape.width * shape.height
	src := rng.Intn(nodes)
	req := OpenRequest{
		Tenant:   tenant,
		Src:      NodeRef{x: src % shape.width, y: src / shape.width, coord: true},
		SlotsFwd: 1 + rng.Intn(cfg.MaxSlotsFwd),
	}
	if rng.Float64() < cfg.MulticastFrac && nodes > 3 {
		nd := 2 + rng.Intn(2)
		seen := map[int]bool{src: true}
		for len(req.Dsts) < nd {
			d := rng.Intn(nodes)
			if seen[d] {
				continue
			}
			seen[d] = true
			req.Dsts = append(req.Dsts, NodeRef{x: d % shape.width, y: d / shape.width, coord: true})
		}
		return req
	}
	dst := src
	for dst == src {
		dst = rng.Intn(nodes)
	}
	req.Dst = NodeRef{x: dst % shape.width, y: dst / shape.width, coord: true}
	if rng.Float64() < 0.25 {
		req.SlotsRev = 1 + rng.Intn(2)
	}
	return req
}

// MarshalJSON renders a NodeRef back to its wire form, so the driver's
// requests round-trip through the same decoder the service uses.
func (n NodeRef) MarshalJSON() ([]byte, error) {
	if n.coord {
		return json.Marshal(fmt.Sprintf("%d,%d", n.x, n.y))
	}
	return json.Marshal(int64(n.id))
}

func doPost(cfg LoadConfig, path string, req OpenRequest) (int, map[string]any, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := cfg.Client.Post(cfg.BaseURL+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			return 0, nil, err
		}
		status, body, err := readReply(resp)
		if status == http.StatusServiceUnavailable && cfg.Retry503 && attempt < 10 {
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
			continue
		}
		return status, body, err
	}
}

func doClose(cfg LoadConfig, tenant string, handle uint64, traced bool) (int, map[string]any, error) {
	url := fmt.Sprintf("%s/v1/connections/%d?tenant=%s", cfg.BaseURL, handle, tenant)
	if traced {
		url += "&trace=1"
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodDelete, url, nil)
		if err != nil {
			return 0, nil, err
		}
		resp, err := cfg.Client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		status, body, err := readReply(resp)
		if status == http.StatusServiceUnavailable && cfg.Retry503 && attempt < 10 {
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
			continue
		}
		return status, body, err
	}
}

func readReply(resp *http.Response) (int, map[string]any, error) {
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("bad response body: %w", err)
	}
	return resp.StatusCode, body, nil
}

func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}

// jainIndex computes Jain's fairness index over per-tenant accepted
// throughput normalized by DRR weight. Tenants that sent nothing are
// excluded.
func jainIndex(r *LoadReport) float64 {
	var xs []float64
	for _, t := range r.PerTenant {
		if t.Sent == 0 {
			continue
		}
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		xs = append(xs, float64(t.Accepted)/float64(w))
	}
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
