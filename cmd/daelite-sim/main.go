// Command daelite-sim builds a daelite mesh platform, opens the requested
// connections through the real configuration tree, drives them with CBR
// traffic and reports per-connection delivery statistics — a one-shot
// platform simulation from the command line.
//
// Connections are of the form sx,sy-dx,dy:slots[@rate], e.g.
//
//	daelite-sim -mesh 3x3 -cycles 20000 0,0-2,2:2@0.1 1,0-1,2:4@0.2
//
// Alternatively, -spec platform.json builds the platform from a
// declarative JSON description (see internal/spec) and runs CBR traffic
// at each connection's annotated rate.
//
// With -workload pack.json the command instead compiles and executes an
// application workload pack (see internal/workload): every phase opens
// its connections through the real configuration path, drives its
// traffic, and is checked online against the analytical model; any
// differential mismatch or invariant violation exits non-zero.
//
// With -fail-link x1,y1-x2,y2 the named router link dies -fail-at cycles
// into the run; a health monitor detects the stalled connections and the
// platform repairs them around the dead link, and the report gains fault
// and repair counters.
//
// With -conformance the online invariant checkers ride along for the
// whole run — set-up, traffic, fault, repair and all — and any recorded
// violation makes the command exit non-zero, which is how the CI scale
// job gates real 16x16 set-up through the hierarchical config regions.
package main

import (
	"flag"
	"fmt"
	"os"

	"daelite/internal/cli"
	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/report"
	"daelite/internal/spec"
	"daelite/internal/stats"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/trace"
	"daelite/internal/traffic"
)

func main() {
	var vcdPath, specPath, failLink, expectFP, workloadPath string
	var cycles int
	var failAt, faultSeed, stallTimeout, limit uint64
	var conform bool
	pf := cli.RegisterPlatformFlags(flag.CommandLine)
	flag.BoolVar(&conform, "conformance", false, "attach the online conformance checkers for the whole run and exit non-zero on any violation")
	flag.IntVar(&cycles, "cycles", 50000, "cycles to simulate after set-up")
	flag.Uint64Var(&limit, "limit", 0, "words each source sends (0 = unlimited); bounded sources drain and let -fastforward engage")
	flag.StringVar(&expectFP, "expect-fingerprint", "", "fail (exit non-zero) unless the run's determinism fingerprint equals this hex value")
	flag.StringVar(&vcdPath, "vcd", "", "write a VCD waveform of every NI link to this file")
	flag.StringVar(&specPath, "spec", "", "build the platform from this JSON spec instead of flags")
	flag.StringVar(&workloadPath, "workload", "", "compile and run this workload pack JSON (see internal/workload) instead of CBR connections")
	flag.StringVar(&failLink, "fail-link", "", "kill the router link x1,y1-x2,y2 mid-run and repair around it")
	flag.Uint64Var(&failAt, "fail-at", 1000, "cycles after set-up at which -fail-link dies")
	flag.Uint64Var(&faultSeed, "fault-seed", 1, "seed for the fault injector")
	flag.Uint64Var(&stallTimeout, "stall-timeout", 256, "health monitor no-progress window (cycles)")
	flag.Parse()

	if workloadPath != "" {
		if err := cli.RunWorkload(os.Stdout, pf, cli.WorkloadRun{Path: workloadPath, ExpectFingerprint: expectFP}); err != nil {
			fatal("%v", err)
		}
		return
	}

	var p *core.Platform
	var prebuilt []*core.Connection
	var prebuiltArgs []string
	var prebuiltRates []float64
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			fatal("%v", err)
		}
		sp, err := spec.Parse(f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
		inst, err := sp.Build()
		if err != nil {
			fatal("%v", err)
		}
		p = inst.Platform
		if pf.FastForward {
			p.EnableFastForward()
		}
		for i, c := range inst.Connections {
			name := sp.Connections[i].Name
			if name == "" {
				name = fmt.Sprintf("conn%d", i)
			}
			rate := sp.Connections[i].Rate
			if rate <= 0 {
				rate = 0.05
			}
			if len(c.Spec.Dsts) > 0 {
				continue // multicast: no CBR harness here
			}
			prebuilt = append(prebuilt, c)
			prebuiltArgs = append(prebuiltArgs, name)
			prebuiltRates = append(prebuiltRates, rate)
		}
	} else {
		var err error
		p, err = pf.BuildMesh()
		if err != nil {
			fatal("%v", err)
		}
	}
	exp, err := pf.StartExporters(p)
	if err != nil {
		fatal("%v", err)
	}
	if url := exp.MetricsURL(); url != "" {
		fmt.Printf("metrics: %s\n", url)
	}
	fingerprint := cli.AttachFingerprint(p)
	var ck *conformance.Checker
	if conform {
		reg := telemetry.NewRegistry()
		if exp != nil {
			reg = exp.Registry
		}
		opts := conformance.Options{}
		if exp != nil && exp.Recorder != nil {
			rec := exp.Recorder
			opts.OnViolation = func(v conformance.Violation) {
				_, _ = rec.Dump("conformance-" + v.Check)
			}
		}
		ck = conformance.Attach(p, reg, opts)
	}
	mon := stats.NewMonitor(p)
	var rec *trace.Recorder
	if vcdPath != "" {
		if pf.FastForward {
			// The waveform recorder samples through a probe every cycle;
			// skipped cycles would leave holes in the trace.
			fmt.Fprintln(os.Stderr, "daelite-sim: -vcd disables -fastforward (waveforms need every cycle)")
			p.Sim.DisableFastForward()
		}
		rec = trace.New(p.Sim)
		for _, id := range p.Mesh.AllNIs {
			name := p.Mesh.Node(id).Name
			rec.AddFlitWire(name+".out", p.NI(id).OutputWire())
		}
	}

	type job struct {
		arg  string
		conn *core.Connection
		sink *traffic.Sink
		src  *traffic.Source
	}
	var jobs []job
	for i, c := range prebuilt {
		src := traffic.NewSource(p.Sim, fmt.Sprintf("src%d", i), p.NI(c.Spec.Src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: prebuiltRates[i], Limit: limit, Seed: uint64(i + 1)})
		sink := traffic.NewSink(p.Sim, fmt.Sprintf("sink%d", i), p.NI(c.Spec.Dst), c.DstChannel)
		jobs = append(jobs, job{arg: prebuiltArgs[i], conn: c, sink: sink, src: src})
	}
	for i, arg := range flag.Args() {
		var sx, sy, dx, dy, ns int
		rate := 0.05
		if n, _ := fmt.Sscanf(arg, "%d,%d-%d,%d:%d@%f", &sx, &sy, &dx, &dy, &ns, &rate); n < 5 {
			fatal("bad connection %q (want sx,sy-dx,dy:slots[@rate])", arg)
		}
		c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(sx, sy, 0), Dst: p.Mesh.NI(dx, dy, 0), SlotsFwd: ns})
		if err != nil {
			fatal("open %q: %v", arg, err)
		}
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			fatal("configure %q: %v", arg, err)
		}
		src := traffic.NewSource(p.Sim, fmt.Sprintf("src%d", i), p.NI(c.Spec.Src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: rate, Limit: limit, Seed: uint64(i + 1)})
		sink := traffic.NewSink(p.Sim, fmt.Sprintf("sink%d", i), p.NI(c.Spec.Dst), c.DstChannel)
		jobs = append(jobs, job{arg: arg, conn: c, sink: sink, src: src})
	}
	if len(jobs) == 0 {
		fatal("no connections given")
	}

	// Optional chaos: kill one router link mid-run, detect the stalls and
	// repair the affected connections around it while the rest keep
	// running.
	var inj *fault.Injector
	var hmon *core.HealthMonitor
	var repairs []*core.RepairResult
	if failLink != "" {
		var x1, y1, x2, y2 int
		if _, err := fmt.Sscanf(failLink, "%d,%d-%d,%d", &x1, &y1, &x2, &y2); err != nil {
			fatal("bad -fail-link %q (want x1,y1-x2,y2): %v", failLink, err)
		}
		w, h := p.Mesh.Spec.Width, p.Mesh.Spec.Height
		for _, c := range [][2]int{{x1, y1}, {x2, y2}} {
			if c[0] < 0 || c[0] >= w || c[1] < 0 || c[1] >= h {
				fatal("-fail-link router %d,%d outside the %dx%d mesh", c[0], c[1], w, h)
			}
		}
		from, to := p.Mesh.Router(x1, y1), p.Mesh.Router(x2, y2)
		var dead topology.LinkID = -1
		for _, l := range p.Mesh.Links() {
			if l.From == from && l.To == to {
				dead = l.ID
			}
		}
		if dead < 0 {
			fatal("no link R%d%d -> R%d%d", x1, y1, x2, y2)
		}
		at := p.Cycle() + failAt
		var err error
		inj, err = fault.Attach(p, faultSeed, fault.Fault{Kind: fault.LinkDown, Link: dead, From: at})
		if err != nil {
			fatal("%v", err)
		}
		if exp != nil {
			inj.AttachTelemetry(exp.Registry)
		}
		mon.ObserveFaults(inj)
		hmon = core.NewHealthMonitor(p, stallTimeout)
		if exp != nil && exp.Recorder != nil {
			rec := exp.Recorder
			hmon.OnStall = func(c *core.Connection, cycle uint64) {
				_, _ = rec.Dump("stall")
			}
		}
		fmt.Printf("fault scheduled: %s dies at cycle %d\n", failLink, at)
	}

	// A signal stops the kernel cleanly: the stepping loop falls through,
	// the partial-run report and telemetry still get written, and the
	// metrics endpoint drains instead of dropping scrapes.
	unhook := cli.OnSignal(func() { p.Sim.Stop("interrupted by signal") })
	defer unhook()

	if hmon == nil {
		p.Run(uint64(cycles))
	} else {
		end := p.Cycle() + uint64(cycles)
		for p.Cycle() < end {
			step := uint64(512)
			if rest := end - p.Cycle(); rest < step {
				step = rest
			}
			p.Run(step)
			if stopped, _ := p.Sim.Stopped(); stopped {
				break
			}
			if len(hmon.Stalled()) == 0 {
				continue
			}
			res, err := p.RepairStalled(hmon, 1_000_000)
			repairs = append(repairs, res...)
			if err != nil {
				fatal("repair: %v", err)
			}
		}
	}

	if stopped, reason := p.Sim.Stopped(); stopped {
		fmt.Printf("run stopped early at cycle %d: %s\n", p.Cycle(), reason)
	}
	if skipped := p.Sim.SkippedCycles(); skipped > 0 {
		fmt.Printf("fast-forwarded %d of %d cycles\n", skipped, p.Cycle())
	} else if blocker := p.Sim.SkipBlocker(); blocker != "" {
		fmt.Printf("fast-forwarded 0 cycles (last blocked by %s)\n", blocker)
	}
	evaluated, offered := p.Sim.Evaluations()
	fmt.Printf("evaluated %d of %d component-cycles\n", evaluated, offered)

	t := report.NewTable(fmt.Sprintf("daelite-sim — %d cycles", cycles),
		"Connection", "Setup (cycles)", "Sent", "Delivered", "In flight", "OoO", "Net latency", "End-to-end latency")
	for _, j := range jobs {
		st := j.sink.Stats()
		tot := j.sink.TotalStats()
		t.AddRow(j.arg, j.conn.SetupCycles(), j.src.Sent(), j.sink.Received(),
			j.src.Sent()-j.sink.Received(), j.sink.OutOfOrder(),
			st.String(), tot.String())
	}
	fmt.Println(t.Render())
	if inj != nil {
		fmt.Println(stats.FaultReport("Fault activations", inj))
		if len(repairs) > 0 {
			fmt.Println(stats.RepairReport(p, repairs))
		}
	}
	fmt.Println(mon.Report("Link utilization"))
	if err := exp.Close(); err != nil {
		fatal("%v", err)
	}
	if ck != nil {
		ck.CheckNow()
		if v := ck.Violations(); v > 0 {
			for i, viol := range ck.Recorded() {
				if i >= 5 {
					break
				}
				fmt.Fprintf(os.Stderr, "daelite-sim: violation %+v\n", viol)
			}
			fatal("conformance: %d violations", v)
		}
		fmt.Println("conformance: no violations")
	}
	fp := fingerprint()
	fmt.Printf("fingerprint: %016x\n", fp)
	if expectFP != "" {
		if err := cli.CheckFingerprint(fp, expectFP); err != nil {
			fatal("%v", err)
		}
	}

	if rec != nil {
		f, err := os.Create(vcdPath)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		if err := rec.WriteVCD(f, "1ns"); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("waveform written to %s\n", vcdPath)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "daelite-sim: "+format+"\n", args...)
	os.Exit(1)
}
