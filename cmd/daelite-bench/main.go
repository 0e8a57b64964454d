// Command daelite-bench regenerates every table, figure and quantified
// claim of the paper's evaluation section and prints them in the paper's
// row/series format. Use -experiment to run a single one (by ID, e.g. E3,
// or by artifact substring, e.g. "Table III").
//
// With -json the tool instead emits a machine-readable BENCH_<rev>.json
// snapshot (see internal/benchfmt): per-benchmark wall-clock ns/op for
// the micro-benchmarks and experiments, each experiment's headline
// metrics, and a calibration number so cmd/daelite-benchdiff can compare
// snapshots taken on different machines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"daelite/internal/admission"
	"daelite/internal/benchfmt"
	"daelite/internal/core"
	"daelite/internal/experiments"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

func main() {
	var which, outPath, cpuProfile, memProfile string
	var listOnly, jsonOut, fastforward bool
	flag.StringVar(&which, "experiment", "", "run only the experiment with this ID (E1..E24, A1..A9) or artifact substring")
	flag.BoolVar(&listOnly, "list", false, "list experiments without running them")
	flag.StringVar(&outPath, "o", "", "also write the output to this file (with -json: the snapshot path)")
	flag.BoolVar(&jsonOut, "json", false, "emit a BENCH_<rev>.json machine-readable snapshot instead of tables")
	flag.BoolVar(&fastforward, "fastforward", false, "arm fast-forwarding on experiment platforms (tables stay bit-identical; only wall clock changes)")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&memProfile, "memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	experiments.SetFastForward(fastforward)

	if listOnly {
		list()
		return
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}()
	}
	if jsonOut {
		if err := writeJSON(outPath); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	// E16's and E17's throughput numbers are wall-clock and
	// machine-dependent, so they are excluded from the default (golden)
	// run and only appear when asked for by name.
	if which != "" && wantsScaling(which) {
		r, err := experiments.ScalingThroughput()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		printResult(out, r)
		return
	}
	if which != "" && wantsAdmission(which) {
		r, err := experiments.AdmissionThroughput()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		printResult(out, r)
		return
	}
	if which != "" && wantsControlPlane(which) {
		r, err := experiments.ControlPlaneSoak()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		printResult(out, r)
		return
	}
	if which != "" && wantsFastForward(which) {
		r, err := experiments.FastForwardThroughput()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		printResult(out, r)
		return
	}

	results, err := experiments.All()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	for _, r := range results {
		if which != "" && r.ID != which && !strings.Contains(strings.ToLower(r.Artifact), strings.ToLower(which)) {
			continue
		}
		printResult(out, r)
	}
}

func wantsScaling(which string) bool {
	w := strings.ToLower(which)
	return strings.EqualFold(which, "E16") || strings.Contains("kernel scaling", w)
}

func wantsAdmission(which string) bool {
	w := strings.ToLower(which)
	return strings.EqualFold(which, "E17") || strings.Contains("batch admission throughput", w)
}

func wantsControlPlane(which string) bool {
	w := strings.ToLower(which)
	return strings.EqualFold(which, "E19") || strings.Contains("control-plane admission service", w)
}

func wantsFastForward(which string) bool {
	w := strings.ToLower(which)
	return strings.EqualFold(which, "E22") || strings.Contains("fast-forward throughput", w)
}

func printResult(out io.Writer, r *experiments.Result) {
	fmt.Fprintf(out, "==== %s — %s ====\n\n", r.ID, r.Artifact)
	fmt.Fprintln(out, r.Text)
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(out, "metrics:")
		for _, k := range keys {
			fmt.Fprintf(out, "  %-32s %g\n", k, r.Metrics[k])
		}
	}
	fmt.Fprintln(out)
}

func list() {
	fmt.Println("E1   Table I — feature comparison")
	fmt.Println("E2   Table II — area reduction")
	fmt.Println("E3   Table III — connection set-up time")
	fmt.Println("E4   traversal latency (2 vs 3 cycles per hop)")
	fmt.Println("E5   header overhead (0% vs 11-33%)")
	fmt.Println("E6   configuration slot bandwidth loss (6.25% at 16 slots)")
	fmt.Println("E7   multipath bandwidth gain (~24%)")
	fmt.Println("E8   scheduling latency vs slot size")
	fmt.Println("E9   Fig. 6 path set-up example")
	fmt.Println("E10  Fig. 7 multicast tree vs separate connections")
	fmt.Println("E11  contention-free routing invariant (Fig. 1/2)")
	fmt.Println("E12  critical path / maximum frequency")
	fmt.Println("E13  use-case switching under traffic")
	fmt.Println("E14  attained vs reserved bandwidth under saturation")
	fmt.Println("E15  repair latency under a link failure (chaos)")
	fmt.Println("E16  kernel scaling (cycles/sec vs mesh size; not in golden output)")
	fmt.Println("E17  batch admission throughput (set-ups/sec vs mesh size vs workers; not in golden output)")
	fmt.Println("E18  conformance: sim-vs-model differential sweep + mutation smoke")
	fmt.Println("E19  control-plane admission service under multi-tenant load (req/s, fairness, restart replay; not in golden output)")
	fmt.Println("E20  regioned vs single-tree set-up latency and wire cost")
	fmt.Println("E21  per-stage set-up latency via causal traces")
	fmt.Println("E22  fast-forward throughput (cycles/sec + skipped fraction vs workload; not in golden output)")
	fmt.Println("E23  DNN inference pack: per-layer energy and latency")
	fmt.Println("E24  switch-fabric pack: acceptance and delivery under VOQ matrices")
	fmt.Println("A1   ablation: TDM wheel size")
	fmt.Println("A2   ablation: configuration cool-down")
	fmt.Println("A3   ablation: host placement / tree depth")
	fmt.Println("A4   ablation: NI queue depth / credit round-trip")
	fmt.Println("A5   ablation: model-vs-model router area")
	fmt.Println("A6   ablation: pipelined (long/mesochronous) links")
	fmt.Println("A7   ablation: energy per delivered word")
	fmt.Println("A8   ablation: slot placement (dimensioning flow)")
	fmt.Println("A9   ablation: partial-path reconfiguration")
}

// --- JSON snapshot mode ---

// measure times op until at least minMeasure of wall clock has elapsed
// and returns ns/op. op is run once untimed to warm caches.
const minMeasure = 100 * time.Millisecond

func measure(op func()) float64 {
	op()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		elapsed := time.Since(start)
		if elapsed >= minMeasure || n >= 1<<22 {
			return float64(elapsed.Nanoseconds()) / float64(n)
		}
		n *= 2
	}
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink uint64

// calibrate measures the fixed xorshift spin loop every snapshot embeds,
// so benchdiff can normalize ns/op across machines of different speeds.
func calibrate() float64 {
	return measure(func() {
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 1<<14; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
	})
}

// relay copies its input register to its output register; a chain of
// relays is the minimal kernel-throughput workload (mirrors the
// BenchmarkKernelStep* benchmarks in internal/sim).
type relay struct {
	name    string
	in, out *sim.Reg[int]
}

func (r *relay) Name() string      { return r.name }
func (r *relay) Eval(cycle uint64) { r.out.Set(r.in.Get() + 1) }
func (r *relay) Commit()           {}

func newChain(n int) *sim.Simulator {
	s := sim.New()
	regs := make([]*sim.Reg[int], n+1)
	for i := range regs {
		regs[i] = sim.NewReg(s, 0)
	}
	for i := 0; i < n; i++ {
		s.Add(&relay{name: fmt.Sprintf("r%d", i), in: regs[i], out: regs[i+1]})
	}
	return s
}

// platformCycleOp reproduces the root BenchmarkPlatformCycle workload: a
// loaded 4x4 platform stepped one cycle per op. With telemetry set it
// attaches a harvesting registry first, reproducing
// BenchmarkPlatformCycleTelemetry; with tracing set it attaches the
// causal tracer, reproducing BenchmarkPlatformCycleTracing — the trio
// bounds the observability overhead in the gated set.
func platformCycleOp(withTelemetry, withTracing bool) (func(), error) {
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		return nil, err
	}
	if withTelemetry {
		p.AttachTelemetry(telemetry.NewRegistry(), 0)
	}
	if withTracing {
		p.AttachTracer(tracing.New(tracing.Options{}))
	}
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 1, 0), Dst: p.Mesh.NI(3, 3, 0), SlotsFwd: 2})
	if err != nil {
		return nil, err
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		return nil, err
	}
	src := p.NI(c.Spec.Src)
	dst := p.NI(c.Spec.Dst)
	i := 0
	return func() {
		src.Send(c.SrcChannel, phit.Word(i))
		i++
		p.Run(1)
		for {
			if _, ok := dst.Recv(c.DstChannel); !ok {
				break
			}
		}
	}, nil
}

// perCycle wraps a measured ns/op in an entry that also carries the
// simulated cycles/sec it implies, so kernel throughput — and the
// fast-forward win over it — is directly visible in the snapshot.
func perCycle(ns, cyclesPerOp float64) benchfmt.Entry {
	return benchfmt.Entry{NsPerOp: ns, Metrics: map[string]float64{"cycles_per_sec": cyclesPerOp * 1e9 / ns}}
}

// platformCycleFFOp is the fast-forward counterpart of platformCycleOp:
// the same loaded 4x4 platform, drained and settled with fast-forwarding
// armed. One op runs a whole hyper-period, which the kernel skips in
// closed form — the op cost is the quiescence re-scan plus the skip
// arithmetic, the fast-forward machinery's floor.
func platformCycleFFOp() (func(), uint64, error) {
	params := core.DefaultParams()
	params.FastForward = true
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		return nil, 0, err
	}
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 1, 0), Dst: p.Mesh.NI(3, 3, 0), SlotsFwd: 2})
	if err != nil {
		return nil, 0, err
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		return nil, 0, err
	}
	period := uint64(p.Params.Wheel * p.Params.SlotWords)
	p.Run(20 * period) // through the settle window; skipping engages
	return func() { p.Run(period) }, period, nil
}

func writeJSON(outPath string) error {
	f := &benchfmt.File{
		Rev:                gitRev(),
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		CalibrationNsPerOp: calibrate(),
		Benchmarks:         map[string]benchfmt.Entry{},
	}

	// Micro-benchmarks: the raw kernel (relay chains) and the loaded 4x4
	// platform.
	for _, mb := range []struct {
		name string
		n    int
	}{
		{"BenchmarkKernelStep256", 256},
		{"BenchmarkKernelStep4096", 4096},
	} {
		s := newChain(mb.n)
		f.Benchmarks[mb.name] = perCycle(measure(func() { s.Step() }), 1)
	}
	for _, pb := range []struct {
		name      string
		telemetry bool
		tracing   bool
	}{
		{"BenchmarkPlatformCycle", false, false},
		{"BenchmarkPlatformCycleTelemetry", true, false},
		{"BenchmarkPlatformCycleTracing", false, true},
	} {
		op, err := platformCycleOp(pb.telemetry, pb.tracing)
		if err != nil {
			return err
		}
		f.Benchmarks[pb.name] = perCycle(measure(op), 1)
	}
	ffOp, ffPeriod, err := platformCycleFFOp()
	if err != nil {
		return err
	}
	f.Benchmarks["BenchmarkPlatformCycleFastForward"] = perCycle(measure(ffOp), float64(ffPeriod))
	bm, err := experiments.BuildBigMesh(16, 16, 8)
	if err != nil {
		return err
	}
	f.Benchmarks["BenchmarkBigMesh16x16"] = perCycle(measure(func() { bm.Run(1) }), 1)

	// Admission engine: the sequential churn workload (the allocator hot
	// path end to end) and the parallel batch engine, mirroring the
	// BenchmarkAlloc* benchmarks in internal/alloc.
	churnOp, err := experiments.AllocChurnOp()
	if err != nil {
		return err
	}
	f.Benchmarks["BenchmarkAllocChurn"] = benchfmt.Entry{NsPerOp: measure(churnOp)}
	for _, ab := range []struct {
		name    string
		workers int
	}{
		{"BenchmarkAllocBatch", 1},
		{"BenchmarkAllocBatchPar", 0},
	} {
		op, err := experiments.AllocBatchOp(ab.workers)
		if err != nil {
			return err
		}
		f.Benchmarks[ab.name] = benchfmt.Entry{NsPerOp: measure(op)}
	}

	// Control plane: one full admission round trip (HTTP open decoded,
	// drafted under DRR and quota, committed, settled, journaled, then
	// closed) through a running service — the served-system overhead on
	// top of BenchmarkAlloc*.
	admOp, admCleanup, err := admission.RequestBenchOp()
	if err != nil {
		return err
	}
	f.Benchmarks["BenchmarkAdmissionRequest"] = benchfmt.Entry{NsPerOp: measure(admOp)}
	admCleanup()

	// Experiments: one timed regeneration each, headline metrics attached.
	results, err := timedExperiments()
	if err != nil {
		return err
	}
	for _, tr := range results {
		f.Benchmarks[tr.r.ID] = benchfmt.Entry{NsPerOp: tr.ns, Metrics: tr.r.Metrics}
	}
	e16Start := time.Now()
	e16, err := experiments.ScalingThroughput()
	if err != nil {
		return err
	}
	f.Benchmarks[e16.ID] = benchfmt.Entry{
		NsPerOp: float64(time.Since(e16Start).Nanoseconds()),
		Metrics: e16.Metrics,
	}
	e17Start := time.Now()
	e17, err := experiments.AdmissionThroughput()
	if err != nil {
		return err
	}
	f.Benchmarks[e17.ID] = benchfmt.Entry{
		NsPerOp: float64(time.Since(e17Start).Nanoseconds()),
		Metrics: e17.Metrics,
	}
	e19Start := time.Now()
	e19, err := experiments.ControlPlaneSoak()
	if err != nil {
		return err
	}
	f.Benchmarks[e19.ID] = benchfmt.Entry{
		NsPerOp: float64(time.Since(e19Start).Nanoseconds()),
		Metrics: e19.Metrics,
	}
	e22Start := time.Now()
	e22, err := experiments.FastForwardThroughput()
	if err != nil {
		return err
	}
	f.Benchmarks[e22.ID] = benchfmt.Entry{
		NsPerOp: float64(time.Since(e22Start).Nanoseconds()),
		Metrics: e22.Metrics,
	}

	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", f.Rev)
	}
	if err := f.WriteFile(outPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d benchmarks, calibration %.0f ns/op, rev %s, %s, GOMAXPROCS %d\n",
		outPath, len(f.Benchmarks), f.CalibrationNsPerOp, f.Rev, f.GoVersion, f.GOMAXPROCS)
	return nil
}

type timedResult struct {
	r  *experiments.Result
	ns float64
}

// timedExperiments runs the full E1..A9 suite once (the same list as
// experiments.All, unrolled so each regeneration can be timed
// individually) and returns each result with its elapsed wall clock.
func timedExperiments() ([]timedResult, error) {
	runs := []func() (*experiments.Result, error){
		experiments.TableIFeatures,
		experiments.TableIIArea,
		experiments.TableIIISetup,
		experiments.TraversalLatency,
		experiments.HeaderOverhead,
		experiments.ConfigSlotLoss,
		experiments.MultipathGain,
		experiments.SchedulingLatency,
		experiments.Fig6PathSetup,
		experiments.MulticastTreeVsUnicast,
		experiments.ContentionFreedom,
		experiments.CriticalPath,
		experiments.UseCaseSwitch,
		experiments.AttainedBandwidth,
		experiments.FaultRepair,
		experiments.AblationWheelSize,
		experiments.AblationCooldown,
		experiments.AblationTreeDepth,
		experiments.AblationQueueDepth,
		experiments.AblationLongLinks,
		experiments.EnergyPerWord,
		experiments.SlotPlacement,
		experiments.PartialReconfig,
		experiments.ModelVsModelArea,
		experiments.DNNWorkload,
		experiments.SwitchWorkload,
	}
	out := make([]timedResult, 0, len(runs))
	for _, run := range runs {
		start := time.Now()
		r, err := run()
		if err != nil {
			return nil, err
		}
		out = append(out, timedResult{r: r, ns: float64(time.Since(start).Nanoseconds())})
	}
	return out, nil
}

// gitRev returns the short hash of HEAD, or "dev" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return "dev"
	}
	return rev
}
