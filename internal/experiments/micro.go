package experiments

import (
	"errors"
	"fmt"

	"daelite/internal/admission"
	"daelite/internal/core"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// MicroBench is one micro-benchmark of the core machinery.
type MicroBench struct {
	// Name is the benchmark's name under `go test -bench Micro/`.
	Name string
	// Build sets the workload up and returns the op to time.
	// cyclesPerOp is the number of simulated cycles one op advances, or 0
	// when the op is host work only; cleanup releases what Build started
	// and is never nil when err is.
	Build func() (op func(), cyclesPerOp float64, cleanup func(), err error)
}

// Micro is the one list of micro-benchmarks. The root BenchmarkMicro
// times Micro[i].Build's op, and TestMicroOpsRun runs it once, so a
// broken body fails `go test ./...`.
var Micro = []MicroBench{
	// The raw kernel: relay chains, the workload shape of a platform.
	{"KernelStep256", simple(1, func() (func(), error) { return kernelStep(256), nil })},
	{"KernelStep4096", simple(1, func() (func(), error) { return kernelStep(4096), nil })},
	// The PlatformCycle trio bounds the observability overhead: bare is
	// the cost every run pays; Telemetry attaches a registry harvesting
	// at the default interval; Tracing attaches the causal tracer, which
	// creates spans only around configuration transactions and never on
	// the per-cycle datapath. benchmark/ holds the <= 5% cost contract
	// as telemetry.attach_overhead_ratio and tracing.attach_overhead_ratio.
	{"PlatformCycle", simple(1, func() (func(), error) { return platformCycle(false, false) })},
	{"PlatformCycleTelemetry", simple(1, func() (func(), error) { return platformCycle(true, false) })},
	{"PlatformCycleTracing", simple(1, func() (func(), error) { return platformCycle(false, true) })},
	{"PlatformCycleFastForward", platformCycleFastForward},
	// One simulated cycle per op on the full 16x16 torus: 512 elements
	// set up through six hierarchical config regions. The 7-bit config ID
	// space caps a single region at 127 elements; the region partition is
	// what lets this platform configure at all.
	{"BigMesh16x16", simple(1, func() (func(), error) {
		bm, err := BuildBigMesh(16, 16, 8)
		if err != nil {
			return nil, err
		}
		return func() { bm.Run(1) }, nil
	})},
	// The admission engine: one churn decision per op (the headline
	// set-ups/sec number), then one 32-item batch per op.
	{"AllocChurn", simple(0, AllocChurnOp)},
	{"AllocBatch", simple(0, AllocBatchOp)},
	// One full control-plane round trip through a running admission
	// service: the served-system overhead on top of Alloc*.
	{"AdmissionRequest", func() (func(), float64, func(), error) {
		op, cleanup, err := admission.RequestBenchOp()
		return op, 0, cleanup, err
	}},
}

// simple adapts a builder that has nothing to clean up.
func simple(cyclesPerOp float64, build func() (func(), error)) func() (func(), float64, func(), error) {
	return func() (func(), float64, func(), error) {
		op, err := build()
		return op, cyclesPerOp, func() {}, err
	}
}

// relay copies its input register to its output register; a chain of
// relays is the minimal kernel-throughput workload.
type relay struct {
	name    string
	in, out *sim.Reg[int]
}

func (r *relay) Name() string      { return r.name }
func (r *relay) Eval(cycle uint64) { r.out.Set(r.in.Get() + 1) }

// kernelStep steps a chain of n relays one cycle per op.
func kernelStep(n int) func() {
	s := sim.New()
	regs := make([]*sim.Reg[int], n+1)
	for i := range regs {
		regs[i] = sim.NewReg(s, 0)
	}
	for i := 0; i < n; i++ {
		s.Add(&relay{name: fmt.Sprintf("r%d", i), in: regs[i], out: regs[i+1]})
	}
	return s.Step
}

// loadedPlatform builds the PlatformCycle workload: a 4x4 mesh at the
// default 8-slot wheel with one 2-slot connection open across it,
// optionally with a telemetry registry or the causal tracer attached
// before the connection opens. The micro-benchmarks fix their own kernel
// mode, so ff overrides SetFastForward.
func loadedPlatform(ff, withTelemetry, withTracing bool) (*core.Platform, *core.Connection, error) {
	params := platformParams(8)
	params.FastForward = ff
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	if withTelemetry {
		p.AttachTelemetry(telemetry.NewRegistry(), 0)
	}
	if withTracing {
		p.AttachTracer(tracing.New(tracing.Options{}))
	}
	c, err := openDaelite(p, p.Mesh.NI(0, 1, 0), p.Mesh.NI(3, 3, 0), 2)
	return p, c, err
}

// platformCycle sends one word, steps the loaded platform one cycle
// and drains the destination per op.
func platformCycle(withTelemetry, withTracing bool) (func(), error) {
	p, c, err := loadedPlatform(false, withTelemetry, withTracing)
	if err != nil {
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

// platformCycleFastForward measures the fast-forward machinery's floor: the
// loaded platform, drained and settled with fast-forwarding armed. One
// op runs a hyper-period's worth of cycles, which the kernel skips
// whole — the cost is the awake-set and gate scan plus the skip
// arithmetic and catch-up hooks, not per-component evaluation. The gap
// to PlatformCycle (times the op length) is the cycles/sec win on
// settled platforms.
func platformCycleFastForward() (func(), float64, func(), error) {
	p, _, err := loadedPlatform(true, false, false)
	if err != nil {
		return nil, 0, nil, err
	}
	period := uint64(p.Params.Wheel * p.Params.SlotWords)
	p.Run(20 * period) // every element goes to sleep; skipping engages
	if p.Sim.SkippedCycles() == 0 {
		return nil, 0, nil, errors.New("experiments: fast-forward never engaged on the drained platform")
	}
	return func() { p.Run(period) }, float64(period), func() {}, nil
}
