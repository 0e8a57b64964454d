package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric: its name and unit as printed, which
// way is better, and how it is held to account. The same tables are
// written out in BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks simulated-time and count metrics: the same seed gives
	// the same value on any host, so -compare flags any difference.
	Exact bool
	// Moves names the end-to-end metric (and workload) a per-layer
	// metric should move; the README's interaction table is built on it.
	Moves string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; what an "op" is differs per workload and is
// printed with the result (see README.md).
//
// The bounds are three times the widest run-to-run spread (IQR over
// median, ten seeds) seen on the 2-vCPU reference box, capped at 0.25.
// Outside the box's noisy episodes the torus workloads repeat within
// 2-3 % and mesh8_churn within 6 %; inside one, whichever workload is
// running spreads to 12-13 %. README.md lists the spread of every pair.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is the traced run's output: the workload's own simulated
// statistics and host accounting first, then the layer ladder from the
// slot tables up.
var perLayer = []metricDef{
	// Simulated statistics of the workload itself (exact).
	{Name: "setup_cycles_mean", Unit: "cycles", Better: "lower", Exact: true, Moves: "the paper's headline: simulated cycles open->settled"},
	{Name: "word_latency_cycles_p99", Unit: "cycles", Better: "lower", Exact: true, Moves: "QoS: must not move while the config tree is busy"},
	{Name: "accept_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "allocation quality: must not fall when alloc gets faster"},
	{Name: "delivered_words", Unit: "count", Better: "higher", Exact: true},

	// The workload's own host accounting. The op latency tail repeats
	// within 8-27 % only, too loose for a bounded end-to-end metric.
	{Name: "op_p99_us", Unit: "us", Better: "lower", Moves: "tail of op_p50_us: GC pauses, scheduler and host jitter"},
	{Name: "core.cycle_ns", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s on this workload (its reciprocal)"},
	{Name: "core.attrib.router_ns", Unit: "ns", Better: "lower", Moves: "share of core.cycle_ns spent in router bodies"},
	{Name: "core.attrib.ni_ns", Unit: "ns", Better: "lower", Moves: "share of core.cycle_ns spent in NI bodies"},
	{Name: "core.attrib.rest_ns", Unit: "ns", Better: "lower", Moves: "kernel dispatch, wires, traffic endpoints (and, on admd_mixed, the service)"},
	{Name: "sim.ff_skipped_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "sim_cycles_per_s on torus16_duty only; 0 elsewhere"},
	{Name: "host.allocs_per_cycle", Unit: "count", Better: "lower", Moves: "sim_cycles_per_s through GC"},
	{Name: "host.allocs_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s through GC"},
	{Name: "host.bytes_per_op", Unit: "bytes", Better: "lower", Moves: "peak_rss_mb, ops_per_s"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "op_p99_us"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "nothing: the price of the spans themselves"},

	// slots
	{Name: "slots.router_lookup_ns", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s on torus16_dense"},
	{Name: "slots.ni_lookup_ns", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s on torus16_dense"},
	{Name: "slots.mask_rotate_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on mesh8_churn, through alloc.CandidateSlots"},
	// router
	{Name: "router.cycle_ns.loaded", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s on torus16_dense"},
	{Name: "router.cycle_ns.idle", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s on torus16_sparse"},
	{Name: "router.forwarded", Unit: "count", Better: "higher", Exact: true},
	// ni
	{Name: "ni.cycle_ns.loaded", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s on torus16_dense"},
	{Name: "ni.cycle_ns.idle", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s on torus16_sparse"},
	{Name: "ni.words", Unit: "count", Better: "higher", Exact: true},
	{Name: "ni.dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "ni.credit_stall_cycles", Unit: "cycles", Better: "lower", Exact: true},
	// sim
	{Name: "sim.step_ns_per_comp", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s on torus16_sparse; op_p50_us on mesh8_churn"},
	{Name: "sim.reg_commit_ns", Unit: "ns", Better: "lower", Moves: "sim_cycles_per_s on torus16_sparse; op_p50_us on mesh8_churn"},
	{Name: "sim.ff_settle_cycles", Unit: "cycles", Better: "lower", Exact: true, Moves: "sim_cycles_per_s on torus16_duty only"},
	{Name: "sim.ff_round_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us on torus16_duty only"},
	{Name: "sim.par_speedup", Unit: "ratio", Better: "higher", Moves: "nothing measured: workloads run at GOMAXPROCS 1; decides the worker pool's fate"},
	// core, spans around the four facade calls of a churn op
	{Name: "core.open_call_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us on mesh8_churn (small: us against ms)"},
	{Name: "core.await_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us on mesh8_churn (the majority)"},
	{Name: "core.await_cycles", Unit: "cycles", Better: "lower", Exact: true, Moves: "setup_cycles_mean"},
	{Name: "core.close_call_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us on mesh8_churn"},
	{Name: "core.settle_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us on mesh8_churn"},
	{Name: "core.teardown_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "core.cfg_words_per_open", Unit: "words", Better: "lower", Exact: true, Moves: "setup_cycles_mean"},
	{Name: "core.ns_per_setup_cycle", Unit: "ns", Better: "lower", Moves: "op_p50_us on mesh8_churn: await_cycles x this is the await span"},
	// alloc
	{Name: "alloc.unicast_ns", Unit: "ns", Better: "lower", Moves: "core.open_call_ns, hence ops_per_s on mesh8_churn and admd_mixed (small)"},
	{Name: "alloc.multicast_ns", Unit: "ns", Better: "lower", Moves: "core.open_call_ns"},
	{Name: "alloc.release_ns", Unit: "ns", Better: "lower", Moves: "core.close_call_ns"},
	{Name: "alloc.nofit_ns", Unit: "ns", Better: "lower", Moves: "core.open_call_ns"},
	{Name: "alloc.dryrun_ns", Unit: "ns", Better: "lower", Moves: "what-if requests on admd_mixed"},
	{Name: "alloc.batch_ns_per_item", Unit: "ns", Better: "lower", Moves: "ops_per_s on admd_mixed (small)"},
	{Name: "alloc.ops", Unit: "count", Better: "higher", Exact: true},
	{Name: "alloc.nofit", Unit: "count", Better: "lower", Exact: true, Moves: "accept_ratio (must not rise)"},
	{Name: "alloc.pathcache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "alloc.unicast_ns"},
	// cfgproto, configtree
	{Name: "cfgproto.pathsetup_encode_ns", Unit: "ns", Better: "lower", Moves: "core.open_call_ns"},
	{Name: "cfgproto.words_per_hop", Unit: "words", Better: "lower", Exact: true, Moves: "setup_cycles_mean"},
	{Name: "configtree.packets", Unit: "count", Better: "lower", Exact: true, Moves: "setup_cycles_mean (a cool-down per packet)"},
	{Name: "configtree.words", Unit: "words", Better: "lower", Exact: true, Moves: "setup_cycles_mean (a cycle per word)"},
	// admission
	{Name: "admission.http_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_us on admd_mixed"},
	{Name: "admission.handler_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_us on admd_mixed"},
	{Name: "admission.net_self_us", Unit: "us", Better: "lower", Moves: "op_p50_us on admd_mixed, nothing elsewhere"},
	{Name: "admission.journal_self_us", Unit: "us", Better: "lower", Moves: "op_p50_us on admd_mixed, nothing elsewhere"},
	{Name: "admission.pipeline_self_us", Unit: "us", Better: "lower", Moves: "op_p50_us on admd_mixed, nothing elsewhere"},
	{Name: "admission.core_direct_us", Unit: "us", Better: "lower", Moves: "the kernel's share of a request on admd_mixed"},
	{Name: "admission.cycles_per_req", Unit: "cycles", Better: "lower", Moves: "sim_cycles_per_s on admd_mixed"},
	{Name: "admission.batch_mean", Unit: "count", Better: "higher"},
	{Name: "admission.journal_bytes_per_req", Unit: "bytes", Better: "lower", Moves: "admission.journal_self_us"},
	{Name: "admission.refused_503", Unit: "count", Better: "lower", Exact: true},
	{Name: "admission.nofit", Unit: "count", Better: "lower", Exact: true},
	{Name: "admission.quota", Unit: "count", Better: "lower", Exact: true},
	{Name: "admission.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "admission.restore_ms", Unit: "ms", Better: "lower"},
	// observability attached to the dense torus
	{Name: "telemetry.attach_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "sim_cycles_per_s when a registry is attached"},
	{Name: "tracing.attach_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "sim_cycles_per_s when a tracer is attached"},
}

// workloadDef names a workload, says why it exists and how it runs.
type workloadDef struct {
	Name string
	Why  string
	// procs is the GOMAXPROCS the workload runs at.
	procs func(nproc int) int
	run   func(cfg runConfig, tr *tracer) (*measured, error)
}

func one(int) int { return 1 }

var workloads = []workloadDef{
	{Name: "torus16_dense", procs: one, run: runTorus,
		Why: "every NI of a 16x16 torus streams CBR: router, NI and slot-table bodies and wire latching do the work"},
	{Name: "torus16_sparse", procs: one, run: runTorus,
		Why: "same torus, 4 live connections: almost every component is idle, so per-component dispatch dominates"},
	{Name: "torus16_duty", procs: one, run: runTorus,
		Why: "bursts then long quiet stretches with fast-forward on: quiescence detection, settle window, hyper-period skipping"},
	{Name: "mesh8_churn", procs: one, run: runChurn,
		Why: "connection open/close churn on an 8x8 mesh under verified background traffic: the paper's fast set-up in host time and cycles"},
	{Name: "admd_mixed", procs: func(n int) int { return min(n, 2) },
		Why: "2 closed-loop tenants drive the journaled admission service over loopback HTTP: JSON, queueing, journal and net/http dominate",
		run: func(cfg runConfig, tr *tracer) (*measured, error) {
			out, err := runAdm(cfg, tr, admOptions{viaHTTP, true, len(admTenants)}, cfg.setups(5), cfg.pick(1_000, 60), true)
			if err != nil {
				return nil, err
			}
			return out.m, nil
		}},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// throughputs returns per-repetition x/second.
func throughputs(x, wall []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] / wall[i]
	}
	return out
}

// cyclesPerSecond is simulated cycles per host second with its context.
func cyclesPerSecond(m *measured) (float64, string) {
	if m.TotalCycles > 0 {
		// The service owns its platform, so cycles cannot be read per
		// repetition: total cycles over the service's lifetime.
		return float64(m.TotalCycles) / m.TotalWall, "service platform cycles over the service's lifetime"
	}
	cps := throughputs(m.RepCyc, m.RepWall)
	return median(cps), fmt.Sprintf("median of %d repetitions, IQR %.1f%%", len(cps), 100*iqrShare(cps))
}

// endToEndValues computes the end-to-end metrics of a measured run, and
// a line of context for each (spread, sample count) for the report.
func endToEndValues(m *measured) (map[string]float64, map[string]string) {
	v, note := map[string]float64{}, map[string]string{}
	v["setup_s"] = median(m.SetupS)
	note["setup_s"] = fmt.Sprintf("median of %d set-ups", len(m.SetupS))

	ops := throughputs(m.RepOps, m.RepWall)
	v["ops_per_s"] = median(ops)
	note["ops_per_s"] = fmt.Sprintf("median of %d repetitions, IQR %.1f%%", len(ops), 100*iqrShare(ops))
	v["sim_cycles_per_s"], note["sim_cycles_per_s"] = cyclesPerSecond(m)

	us := durationsMicros(m.OpLat)
	v["op_p50_us"] = percentile(us, 50)
	note["op_p50_us"] = fmt.Sprintf("%d ops pooled; %s", len(us), opTail(us))

	v["peak_rss_mb"] = m.PeakRSS
	note["peak_rss_mb"] = "VmHWM at the end of the reference section"
	return v, note
}

// opTail renders the op latency tail: the highest percentile that has
// at least ten samples beyond it.
func opTail(sortedUS []float64) string {
	tail := supportedTail(len(sortedUS))
	return fmt.Sprintf("p%g = %.6g us", tail, percentile(sortedUS, tail))
}

// perLayerValues merges the workload's own per-layer numbers with the
// ladder's.
func perLayerValues(m *measured, l ladder) map[string]float64 {
	v := map[string]float64{}
	for k, x := range l {
		v[k] = x
	}
	v["setup_cycles_mean"] = m.Sim.SetupCyclesMean
	v["word_latency_cycles_p99"] = float64(m.Sim.WordLatP99)
	v["accept_ratio"] = m.Sim.acceptRatio()
	v["delivered_words"] = float64(m.Sim.DeliveredWords)

	us := durationsMicros(m.OpLat)
	v["op_p99_us"] = percentile(us, supportedTail(len(us)))

	cps, _ := cyclesPerSecond(m)
	cycleNS := 1e9 / cps
	stepped := 1.0
	v["sim.ff_skipped_ratio"] = 0
	v["host.allocs_per_cycle"] = 0
	if m.Sim.Cycles > 0 {
		v["sim.ff_skipped_ratio"] = float64(m.Sim.SkippedCycles) / float64(m.Sim.Cycles)
		stepped = 1 - v["sim.ff_skipped_ratio"]
	}
	c := m.Counts
	v["core.cycle_ns"] = cycleNS
	v["core.attrib.router_ns"] = stepped * (float64(c.LoadedRouters)*l["router.cycle_ns.loaded"] + float64(c.Routers-c.LoadedRouters)*l["router.cycle_ns.idle"])
	v["core.attrib.ni_ns"] = stepped * (float64(c.LoadedNIs)*l["ni.cycle_ns.loaded"] + float64(c.NIs-c.LoadedNIs)*l["ni.cycle_ns.idle"])
	v["core.attrib.rest_ns"] = cycleNS - v["core.attrib.router_ns"] - v["core.attrib.ni_ns"]

	if m.Host.Cycles > 0 {
		v["host.allocs_per_cycle"] = float64(m.Host.Mallocs) / float64(m.Host.Cycles)
	} else if m.TotalCycles > 0 {
		v["host.allocs_per_cycle"] = float64(m.Host.Mallocs) / float64(m.TotalCycles)
	}
	v["host.allocs_per_op"] = float64(m.Host.Mallocs) / float64(max(m.Host.Ops, 1))
	v["host.bytes_per_op"] = float64(m.Host.Bytes) / float64(max(m.Host.Ops, 1))
	v["host.gc_pause_ms"] = float64(m.Host.GCPauseNs) / 1e6

	var on, off []float64
	for i, w := range m.RepWall {
		if m.RepSpans[i] {
			on = append(on, w)
		} else {
			off = append(off, w)
		}
	}
	v["trace.overhead_ratio"] = 1
	if len(on) > 0 && len(off) > 0 {
		v["trace.overhead_ratio"] = median(on) / median(off)
	}
	return v
}

// emit pairs computed values with their definitions, in definition
// order, and refuses a set that is incomplete or not finite: a metric
// named in BENCHMARK.json is always printed, and nothing else is.
func emit(defs []metricDef, v map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, x)
		}
		out[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	var extra []string
	for k := range v {
		if _, ok := out[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured but not declared: %v", extra)
	}
	return out, nil
}
