package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/report"
	"daelite/internal/stats"
	"daelite/internal/topology"
	"daelite/internal/trace"
	"daelite/internal/traffic"
)

// runSim builds a mesh platform (or, with -spec, the platform a JSON spec
// describes), opens the requested connections through the real
// configuration tree, drives them with CBR traffic and reports
// per-connection delivery statistics. Connections are
// sx,sy-dx,dy:slots[@rate]:
//
//	daelite sim -mesh 3x3 -cycles 20000 0,0-2,2:2@0.1 1,0-1,2:4@0.2
//
// -workload runs an application pack instead (see runWorkload).
// -fail-link kills a router link mid-run; a health monitor detects the
// stalled connections and the platform repairs them around it. With
// -conformance the online invariant checkers ride along for the whole
// run, which is how the CI scale job gates 16x16 set-up through the
// hierarchical config regions. Every requested artifact is written before
// the exit status is decided, so a failing run leaves them too.
func runSim(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	var vcdPath, specPath, failLink, expectFP, workloadPath string
	var cycles int
	var failAt, faultSeed, stallTimeout, limit uint64
	var conform bool
	pf := registerPlatformFlags(fs)
	fs.BoolVar(&conform, "conformance", false, "attach the online conformance checkers for the whole run and exit non-zero on any violation")
	fs.IntVar(&cycles, "cycles", 50000, "cycles to simulate after set-up")
	fs.Uint64Var(&limit, "limit", 0, "words each source sends (0 = unlimited); bounded sources drain and let -fastforward engage")
	fs.StringVar(&expectFP, "expect-fingerprint", "", "fail (exit non-zero) unless the run's determinism fingerprint equals this hex value")
	fs.StringVar(&vcdPath, "vcd", "", "write a VCD waveform of every NI link to this file")
	fs.StringVar(&specPath, "spec", "", "build the platform from this JSON spec instead of flags")
	fs.StringVar(&workloadPath, "workload", "", "compile and run this workload pack JSON (see internal/workload) instead of CBR connections")
	fs.StringVar(&failLink, "fail-link", "", "kill the router link x1,y1-x2,y2 mid-run and repair around it")
	fs.Uint64Var(&failAt, "fail-at", 1000, "cycles after set-up at which -fail-link dies")
	fs.Uint64Var(&faultSeed, "fault-seed", 1, "seed for the fault injector")
	fs.Uint64Var(&stallTimeout, "stall-timeout", 256, "health monitor no-progress window (cycles)")
	if err := parse(fs, argv); err != nil {
		return err
	}

	if workloadPath != "" {
		return runWorkload(stdout, stderr, pf, workloadPath, expectFP, 0)
	}

	type job struct {
		arg  string
		conn *core.Connection
		rate float64
		sink *traffic.Sink
		src  *traffic.Source
	}
	var prebuilt, jobs []job
	var p *core.Platform
	if specPath != "" {
		sp, err := loadSpec(specPath)
		if err != nil {
			return err
		}
		inst, err := sp.Build()
		if err != nil {
			return err
		}
		p = inst.Platform
		if pf.FastForward {
			p.Sim.EnableFastForward()
		}
		for i, c := range inst.Connections {
			rate := sp.Connections[i].Rate
			if rate <= 0 {
				rate = 0.05
			}
			if len(c.Spec.Dsts) > 0 {
				continue // multicast: no CBR harness here
			}
			prebuilt = append(prebuilt, job{arg: connName(sp, i), conn: c, rate: rate})
		}
	} else {
		var err error
		if p, err = pf.buildMesh(); err != nil {
			return err
		}
	}
	s, err := startSoak(pf, p, stdout)
	if err != nil {
		return err
	}
	defer s.exp.close()
	if conform {
		s.ck = s.exp.attachConformance(p)
	}
	s.links = stats.NewMonitor(p)
	var rec *trace.Recorder
	if vcdPath != "" {
		if pf.FastForward {
			// The waveform recorder samples through a probe every cycle;
			// skipped cycles would leave holes in the trace.
			fmt.Fprintln(stderr, "daelite sim: -vcd disables -fastforward (waveforms need every cycle)")
			p.Sim.DisableFastForward()
		}
		rec = trace.New(p.Sim)
		for _, id := range p.Mesh.AllNIs {
			rec.AddFlitWire(p.Mesh.Node(id).Name+".out", p.NI(id).OutputWire())
		}
	}

	// Each source starts as soon as its connection is open, so it runs
	// while the next connection is being configured.
	addJob := func(i int, j job) {
		j.src = traffic.NewSource(p.Sim, fmt.Sprintf("src%d", i), p.NI(j.conn.Spec.Src), j.conn.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: j.rate, Limit: limit, Seed: uint64(i + 1)})
		j.sink = traffic.NewSink(p.Sim, fmt.Sprintf("sink%d", i), p.NI(j.conn.Spec.Dst), j.conn.DstChannel)
		jobs = append(jobs, j)
	}
	for i, j := range prebuilt {
		addJob(i, j)
	}
	for i, arg := range fs.Args() {
		var ns int
		rate := 0.05
		src, dst, err := parseRoute(p.Mesh, arg, "%d@%f", &ns, &rate)
		if err != nil {
			return fmt.Errorf("bad connection %q (want sx,sy-dx,dy:slots[@rate]): %w", arg, err)
		}
		c, err := p.Open(core.ConnectionSpec{Src: src, Dst: dst, SlotsFwd: ns})
		if err != nil {
			return fmt.Errorf("open %q: %w", arg, err)
		}
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			return fmt.Errorf("configure %q: %w", arg, err)
		}
		addJob(i, job{arg: arg, conn: c, rate: rate})
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no connections given")
	}

	// Optional chaos: kill one router link mid-run, detect the stalls and
	// repair the affected connections around it while the rest keep
	// running.
	if failLink != "" {
		a, b, err := parseEnds(p.Mesh, failLink)
		if err != nil {
			return fmt.Errorf("bad -fail-link %q (want x1,y1-x2,y2): %w", failLink, err)
		}
		from, to := p.Mesh.Router(a[0], a[1]), p.Mesh.Router(b[0], b[1])
		var dead topology.LinkID = -1
		for _, l := range p.Mesh.Links() {
			if l.From == from && l.To == to {
				dead = l.ID
			}
		}
		if dead < 0 {
			return fmt.Errorf("no link R%d%d -> R%d%d", a[0], a[1], b[0], b[1])
		}
		at := p.Cycle() + failAt
		if err := s.inject(faultSeed, stallTimeout, fault.Fault{Kind: fault.LinkDown, Link: dead, From: at}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fault scheduled: %s dies at cycle %d\n", failLink, at)
	}

	defer stopOnSignal(p, stderr)()
	s.run(uint64(cycles), stderr)

	t := report.NewTable(fmt.Sprintf("daelite-sim — %d cycles", cycles),
		"Connection", "Setup (cycles)", "Sent", "Delivered", "In flight", "OoO", "Net latency", "End-to-end latency")
	for _, j := range jobs {
		st := j.sink.Stats()
		tot := j.sink.TotalStats()
		t.AddRow(j.arg, j.conn.SetupCycles(), j.src.Sent(), j.sink.Received(),
			j.src.Sent()-j.sink.Received(), j.sink.OutOfOrder(),
			st.String(), tot.String())
	}
	err = s.finish(stdout, t.Render(), "Link utilization", expectFP)
	if rec != nil {
		if werr := writeFile(vcdPath, func(w io.Writer) error { return rec.WriteVCD(w, "1ns") }); werr != nil {
			return errors.Join(err, fmt.Errorf("-vcd: %w", werr))
		}
		fmt.Fprintf(stdout, "waveform written to %s\n", vcdPath)
	}
	return err
}
