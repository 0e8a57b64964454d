package main

import (
	"fmt"
	"runtime"
	"time"

	"daelite"
	"daelite/internal/alloc"
	"daelite/internal/cfgproto"
	"daelite/internal/configtree"
	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/router"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// The layer ladder: every layer of the system measured on its own,
// through its public constructor, from the slot tables up to the
// admission service. The ladder is the same in every traced run of
// every workload — its sizes are frozen and it does not depend on the
// workload — so a per-layer number can always be set beside the
// end-to-end number it should move. Simulator rungs run at GOMAXPROCS 1
// like the simulator workloads.

type ladder map[string]float64

// sink keeps the micro-loops' results alive.
var sink uint64

// nsPer times fn(n) and returns nanoseconds per iteration, best of
// three (a micro-loop is disturbed from outside, never sped up).
func nsPer(n int, fn func(n int)) float64 {
	best := 0.0
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		fn(n)
		if d := float64(time.Since(t0).Nanoseconds()) / float64(n); try == 0 || d < best {
			best = d
		}
	}
	return best
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds())
	}
	return median(xs)
}

// climbLadder measures every rung. Sizes shrink under cfg.Smoke.
func climbLadder(cfg runConfig) (ladder, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	l := ladder{}
	rungSlots(cfg, l)
	for _, rung := range []func(runConfig, ladder) error{
		rungRouter, rungNI, rungKernel, rungFastForward, rungDenseVariants,
		rungChurn, rungAlloc, rungCfgproto, rungAdmission,
	} {
		if err := rung(cfg, l); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// rungSlots: one slot-table lookup as the router and NI bodies do it
// every cycle, and one mask rotation as alloc.CandidateSlots does it
// per link of a candidate path.
func rungSlots(cfg runConfig, l ladder) {
	n := cfg.pick(4_000_000, 20_000)
	rt := slots.NewRouterTable(5, 16)
	for out := 0; out < 5; out++ {
		_ = rt.Set(out, slots.MaskOf(16, 0, 2, 4, 6, 8, 10, 12, 14), (out+1)%5)
	}
	l["slots.router_lookup_ns"] = nsPer(n, func(n int) {
		var acc int
		for i := 0; i < n; i++ {
			if rt.Occupied(i%5, i&15) {
				acc += rt.Input(i%5, i&15)
			}
		}
		sink += uint64(acc)
	})
	nt := slots.NewNITable(16)
	_ = nt.SetSend(slots.MaskOf(16, 1, 5, 9), 2)
	_ = nt.SetReceive(slots.MaskOf(16, 3, 7), 1)
	l["slots.ni_lookup_ns"] = nsPer(n, func(n int) {
		var acc int
		for i := 0; i < n; i++ {
			if ch, ok := nt.Send(i & 15); ok {
				acc += ch
			}
			if ch, ok := nt.Receive(i & 15); ok {
				acc += ch
			}
		}
		sink += uint64(acc)
	})
	m := slots.MaskOf(16, 1, 4, 9, 15)
	l["slots.mask_rotate_ns"] = nsPer(n, func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			acc += m.RotateDown(i & 15).Bits
		}
		sink += acc
	})
}

// rungRouter: one standalone 5x5 router on a bare simulator. Loaded:
// every output reserved in every slot and every input carrying a valid
// word; idle: empty table, idle inputs.
func rungRouter(cfg runConfig, l ladder) error {
	cycles := cfg.pick(400_000, 2_000)
	for _, loaded := range []bool{true, false} {
		s := sim.New()
		r, err := router.New(s, "ladder-router", 1, 5, 5, router.Params{Wheel: 16, SlotWords: 2})
		if err != nil {
			return err
		}
		in := phit.Idle()
		if loaded {
			in = phit.Flit{Valid: true, Data: 0xDAE117E}
			full := slots.NewMask(16)
			for sl := 0; sl < 16; sl++ {
				full = full.With(sl)
			}
			for out := 0; out < 5; out++ {
				if err := r.Table().Set(out, full, (out+1)%5); err != nil {
					return err
				}
			}
		}
		for i := 0; i < 5; i++ {
			r.ConnectInput(i, sim.NewReg(s, in)) // a wire nobody drives keeps its value
		}
		ns := nsPer(cycles, func(n int) { s.Run(uint64(n)) })
		if loaded {
			l["router.cycle_ns.loaded"] = ns
			l["router.forwarded"] = float64(r.Forwarded())
		} else {
			l["router.cycle_ns.idle"] = ns
		}
	}
	return nil
}

// niPair wires two NIs back to back (A's output is B's input and the
// reverse) under one configuration module.
func niPair(s *sim.Simulator) (a, b *ni.NI, mod *configtree.Module, err error) {
	params := ni.Params{Wheel: 8, SlotWords: 2, NumChannels: 4, SendQueueDepth: 16, RecvQueueDepth: 32}
	if a, err = ni.New(s, "ladder-ni-a", 1, params); err != nil {
		return
	}
	if b, err = ni.New(s, "ladder-ni-b", 2, params); err != nil {
		return
	}
	a.ConnectInput(b.OutputWire())
	b.ConnectInput(a.OutputWire())
	mod = configtree.New(s, "ladder-cfg", configtree.DefaultParams())
	a.ConnectConfigIn(mod.ForwardWire())
	b.ConnectConfigIn(mod.ForwardWire())
	mod.ConnectResponse(a.ResponseWire())
	return
}

// rungNI: an NI per cycle, loaded (channel 0 open both ways, A sending
// at line rate into half the wheel, B draining) and idle (nothing
// configured). The loaded figure includes the driver that plays the IP
// side and the idle configuration module, spread over the two NIs.
func rungNI(cfg runConfig, l ladder) error {
	cycles := cfg.pick(300_000, 2_000)
	{
		s := sim.New()
		if _, _, _, err := niPair(s); err != nil {
			return err
		}
		l["ni.cycle_ns.idle"] = nsPer(cycles, func(n int) { s.Run(uint64(n)) }) / 2
	}
	s := sim.New()
	a, b, mod, err := niPair(s)
	if err != nil {
		return err
	}
	txA, txB := slots.MaskOf(8, 0, 1, 2, 3), slots.MaskOf(8, 4, 5, 6, 7)
	for _, e := range []error{
		a.Table().SetSend(txA, 0), b.Table().SetReceive(txA.RotateUp(1), 0),
		b.Table().SetSend(txB, 0), a.Table().SetReceive(txB.RotateUp(1), 0),
	} {
		if e != nil {
			return e
		}
	}
	words, err := cfgproto.WriteRegPacket([]cfgproto.RegWrite{
		{Element: 1, Reg: cfgproto.RegSelect(cfgproto.RegCredit, 0), Value: 32},
		{Element: 2, Reg: cfgproto.RegSelect(cfgproto.RegCredit, 0), Value: 32},
		{Element: 1, Reg: cfgproto.RegSelect(cfgproto.RegFlags, 0), Value: cfgproto.FlagOpen},
		{Element: 2, Reg: cfgproto.RegSelect(cfgproto.RegFlags, 0), Value: cfgproto.FlagOpen},
	})
	if err != nil {
		return err
	}
	if err := mod.SubmitPacket(words); err != nil {
		return err
	}
	s.Run(64)
	var seq uint32
	s.AddOrdered(&sim.Func{Label: "ladder-ip", OnEval: func(uint64) {
		if a.Send(0, phit.Word(seq)) {
			seq++
		}
		for {
			if _, ok := b.Recv(0); !ok {
				return
			}
		}
	}})
	l["ni.cycle_ns.loaded"] = nsPer(cycles, func(n int) { s.Run(uint64(n)) }) / 2
	l["ni.words"] = float64(b.RxWords(0))
	l["ni.dropped"] = float64(a.Dropped() + b.Dropped())
	l["ni.credit_stall_cycles"] = float64(a.CreditStallCycles(0))
	if b.RxWords(0) == 0 {
		return fmt.Errorf("ladder: the NI pair delivered no word")
	}
	return nil
}

// rungKernel: the bare kernel — dispatch of a component that does
// nothing, and the commit of a register nobody wrote.
func rungKernel(cfg runConfig, l ladder) error {
	cycles := cfg.pick(4_000, 100)
	s := sim.New()
	for i := 0; i < 1024; i++ {
		s.Add(&sim.Func{Label: "nop"})
	}
	l["sim.step_ns_per_comp"] = nsPer(cycles, func(n int) { s.Run(uint64(n)) }) / 1024
	s = sim.New()
	for i := 0; i < 4096; i++ {
		sim.NewReg(s, uint64(i))
	}
	l["sim.reg_commit_ns"] = nsPer(cycles, func(n int) { s.Run(uint64(n)) }) / 4096
	return nil
}

// rungFastForward: the duty platform, one round at a time. The settle
// figure is how many cycles the kernel still steps after the last word
// of a burst was delivered before it starts skipping (measured in
// 16-cycle hyper-periods, exact); the round figure is the host time of
// one whole round.
func rungFastForward(cfg runConfig, l ladder) error {
	spec := torusSpecFor("torus16_duty", runConfig{Smoke: true})
	spec.roundCycles = 20_000
	in, err := buildTorus(spec, cfg.Seed)
	if err != nil {
		return err
	}
	p := in.p
	in.offerBurst()
	for in.delivered < in.offered() {
		p.Run(16)
	}
	skipped := p.Sim.SkippedCycles()
	settle := uint64(0)
	for p.Sim.SkippedCycles() == skipped {
		if settle > 10_000 {
			return fmt.Errorf("ladder: fast-forward never engaged on the drained duty platform")
		}
		settle = p.Cycle() - in.lastDelivery
		p.Run(16)
	}
	l["sim.ff_settle_cycles"] = float64(settle)
	var rounds []time.Duration
	for i := 0; i < cfg.pick(5, 2); i++ {
		t0 := time.Now()
		in.round(nil, -1, 0)
		rounds = append(rounds, time.Since(t0))
	}
	l["sim.ff_round_ns"] = medianDur(rounds)
	return nil
}

// denseCPS measures the dense platform's simulated cycles per second.
func denseCPS(cfg runConfig, in *torusInst) float64 {
	var cps []float64
	for i := 0; i < 3; i++ {
		n := uint64(cfg.pick(1_000, 100))
		t0 := time.Now()
		in.p.Run(n)
		cps = append(cps, float64(n)/time.Since(t0).Seconds())
	}
	return median(cps)
}

// rungDenseVariants: the dense torus three more ways. With a telemetry
// registry, then also a causal tracer attached, against detached — the
// zero-cost-detached rule as a number (time attached / time detached) —
// and at the default GOMAXPROCS, where the kernel's worker pool
// engages, against GOMAXPROCS 1.
func rungDenseVariants(cfg runConfig, l ladder) error {
	spec := torusSpecFor("torus16_dense", cfg)
	in, err := buildTorus(spec, cfg.Seed)
	if err != nil {
		return err
	}
	detached := denseCPS(cfg, in)
	in.p.AttachTelemetry(daelite.NewTelemetryRegistry(), 0)
	withRegistry := denseCPS(cfg, in)
	in.p.AttachTracer(daelite.NewTracer(daelite.TracerOptions{}))
	withTracer := denseCPS(cfg, in)
	l["telemetry.attach_overhead_ratio"] = detached / withRegistry
	l["tracing.attach_overhead_ratio"] = withRegistry / withTracer

	runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(1)
	par, err := buildTorus(spec, cfg.Seed)
	if err != nil {
		return err
	}
	l["sim.par_speedup"] = denseCPS(cfg, par) / detached
	return nil
}

// rungChurn: the churn stream through the four facade calls with a span
// around each — where an open's and a close's host time goes.
func rungChurn(cfg runConfig, l ladder) error {
	opens := cfg.pick(150, 24)
	in, err := buildChurn(cfg, churnStream(cfg.Seed, churnSide, churnSide, churnWarmOpens+opens+1, churnHole))
	if err != nil {
		return err
	}
	tr := newTracer()
	pk0, w0 := in.p.Config.Stats()
	var n uint64
	for in.opens < uint64(opens) {
		in.step(tr, n)
		n++
	}
	pk1, w1 := in.p.Config.Stats()
	if in.faults > 0 {
		return fmt.Errorf("ladder: churn rung: %s", in.firstFault)
	}
	l["core.open_call_ns"] = medianDur(tr.durations("core.Open"))
	l["core.await_ns"] = medianDur(tr.durations("core.AwaitOpen"))
	l["core.close_call_ns"] = medianDur(tr.durations("core.Close"))
	l["core.settle_ns"] = medianDur(tr.durations("core.CompleteConfig"))
	l["core.await_cycles"] = float64(in.setupCycles) / float64(max(in.accepted, 1))
	l["core.teardown_cycles"] = float64(in.teardownCycles) / float64(max(in.teardowns, 1))
	l["core.cfg_words_per_open"] = float64(in.setupWords) / float64(max(in.accepted, 1))
	l["core.ns_per_setup_cycle"] = l["core.await_ns"] / l["core.await_cycles"]
	l["configtree.packets"] = float64(pk1 - pk0)
	l["configtree.words"] = float64(w1 - w0)
	return nil
}

// rungAlloc replays the churn stream against a bare allocator over the
// same 8x8 topology: what the allocator's share of an open is, and what
// it admits.
func rungAlloc(cfg runConfig, l ladder) error {
	p, err := daelite.NewMeshPlatform(daelite.MeshSpec{Width: churnSide, Height: churnSide, NIsPerRouter: 1}, daelite.DefaultParams(), 0, 0)
	if err != nil {
		return err
	}
	g, wheel := p.Mesh.Graph, p.Params.Wheel
	ops := churnStream(cfg.Seed, churnSide, churnSide, cfg.pick(1_500, 60), churnHole)
	node := func(c xy) daelite.NodeID { return p.Mesh.NI(c.X, c.Y, 0) }

	a := alloc.New(g, wheel)
	type held struct {
		uni   []*alloc.Unicast
		multi *alloc.Multicast
	}
	live := map[int]held{}
	var uni, multi, release, nofit, dry []time.Duration
	var calls, refused uint64
	timed := func(into *[]time.Duration, fn func() error) error {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		calls++
		if err != nil {
			refused++
			nofit = append(nofit, d)
			return err
		}
		*into = append(*into, d)
		return nil
	}
	for i, op := range ops {
		if !op.Open {
			h, ok := live[op.ID]
			if !ok {
				continue
			}
			delete(live, op.ID)
			_ = timed(&release, func() error {
				for _, u := range h.uni {
					a.ReleaseUnicast(u)
				}
				if h.multi != nil {
					a.ReleaseMulticast(h.multi)
				}
				return nil
			})
			continue
		}
		src := node(op.Src)
		if len(op.Dsts) > 1 {
			dsts := make([]daelite.NodeID, len(op.Dsts))
			for j, d := range op.Dsts {
				dsts[j] = node(d)
			}
			var m *alloc.Multicast
			if timed(&multi, func() (err error) { m, err = a.Multicast(src, dsts, op.Slots); return }) == nil {
				live[op.ID] = held{multi: m}
			}
			continue
		}
		dst := node(op.Dsts[0])
		if i%4 == 0 {
			t0 := time.Now()
			_, _ = a.DryRun([]alloc.Request{{Src: src, Dst: dst, Slots: op.Slots}, {Src: dst, Dst: src, Slots: 1}})
			dry = append(dry, time.Since(t0))
		}
		var fwd, rev *alloc.Unicast
		if timed(&uni, func() (err error) { fwd, err = a.Unicast(src, dst, op.Slots, alloc.Options{}); return }) != nil {
			continue
		}
		if timed(&uni, func() (err error) { rev, err = a.Unicast(dst, src, 1, alloc.Options{}); return }) != nil {
			a.ReleaseUnicast(fwd)
			continue
		}
		live[op.ID] = held{uni: []*alloc.Unicast{fwd, rev}}
	}
	l["alloc.unicast_ns"] = medianDur(uni)
	l["alloc.multicast_ns"] = medianDur(multi)
	l["alloc.release_ns"] = medianDur(release)
	l["alloc.nofit_ns"] = medianDur(nofit)
	l["alloc.dryrun_ns"] = medianDur(dry)
	l["alloc.ops"] = float64(calls)
	l["alloc.nofit"] = float64(refused)
	cs := a.CacheStats()
	l["alloc.pathcache_hit_ratio"] = float64(cs.Hits) / float64(max(cs.Hits+cs.Misses, 1))

	// The batch engine: the stream's first unicast opens as one batch
	// into an empty allocator.
	var items []alloc.BatchItem
	for _, op := range ops {
		if op.Open && len(op.Dsts) == 1 && len(items) < 64 {
			src, dst := node(op.Src), node(op.Dsts[0])
			items = append(items, alloc.BatchItem{Reqs: []alloc.Request{{Src: src, Dst: dst, Slots: op.Slots}, {Src: dst, Dst: src, Slots: 1}}})
		}
	}
	var batch []float64
	for i := 0; i < 5; i++ {
		b := alloc.New(g, wheel)
		t0 := time.Now()
		b.Batch(items, 1)
		batch = append(batch, float64(time.Since(t0).Nanoseconds())/float64(len(items)))
	}
	l["alloc.batch_ns_per_item"] = median(batch)
	return nil
}

// rungCfgproto: encoding the path set-up packet of a six-hop path, and
// the words each further hop adds to it.
func rungCfgproto(cfg runConfig, l ladder) error {
	packet := func(pairs int) cfgproto.PathSetup {
		ps := cfgproto.PathSetup{Mask: slots.MaskOf(8, 1, 2)}
		for i := 0; i < pairs; i++ {
			spec := cfgproto.RouterSpec(1, 2)
			if i == 0 || i == pairs-1 {
				spec = cfgproto.NISpec(i > 0, true, 0) // destination NI first, source NI last
			}
			ps.Pairs = append(ps.Pairs, cfgproto.Pair{Element: 1 + i, Spec: spec})
		}
		return ps
	}
	long, short := packet(8), packet(3)
	lw, err := long.Words()
	if err != nil {
		return err
	}
	sw, err := short.Words()
	if err != nil {
		return err
	}
	l["cfgproto.words_per_hop"] = float64(len(lw)-len(sw)) / 5
	l["cfgproto.pathsetup_encode_ns"] = nsPer(cfg.pick(200_000, 1_000), func(n int) {
		for i := 0; i < n; i++ {
			w, _ := long.Words()
			sink += uint64(len(w))
		}
	})
	return nil
}

// rungAdmission serves one tenant's request stream four ways with one
// closed-loop client — over HTTP, through the handler without sockets,
// the same without the journal, and by the bare facade calls — so that
// each layer's share of a request is the difference between two
// neighbouring rungs:
//
//	http = net_self + journal_self + pipeline_self + core_direct
func rungAdmission(cfg runConfig, l ladder) error {
	prev := runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	defer runtime.GOMAXPROCS(prev)
	per := cfg.pick(1_000, 60)
	p50 := func(opt admOptions) (float64, *admOutcome, error) {
		out, err := runAdm(cfg, nil, opt, 1, per, false)
		if err != nil {
			return 0, nil, err
		}
		if out.m.Failed > 0 {
			return 0, nil, fmt.Errorf("ladder: admission rung %+v: %v", opt, out.m.Failures)
		}
		return percentile(durationsMicros(out.m.OpLat), 50), out, nil
	}
	httpUS, full, err := p50(admOptions{viaHTTP, true, 1})
	if err != nil {
		return err
	}
	handlerUS, _, err := p50(admOptions{viaHandler, true, 1})
	if err != nil {
		return err
	}
	noJournalUS, _, err := p50(admOptions{viaHandler, false, 1})
	if err != nil {
		return err
	}
	coreUS, _, err := p50(admOptions{viaCore, false, 1})
	if err != nil {
		return err
	}
	l["admission.http_p50_us"] = httpUS
	l["admission.handler_p50_us"] = handlerUS
	l["admission.net_self_us"] = httpUS - handlerUS
	l["admission.journal_self_us"] = handlerUS - noJournalUS
	l["admission.pipeline_self_us"] = noJournalUS - coreUS
	l["admission.core_direct_us"] = coreUS
	// Service-side counters of the full (HTTP, journaled) rung,
	// warm-up requests included. One closed-loop client cannot share a
	// tick with anyone, so batch_mean reads 1 until the service gathers
	// differently.
	served := float64(full.requests + uint64(admWarmDraws*len(admTenants)))
	l["admission.cycles_per_req"] = float64(full.cycles) / served
	l["admission.journal_bytes_per_req"] = float64(full.journalBytes) / served
	l["admission.batch_mean"] = full.batchMean
	l["admission.refused_503"] = float64(full.refused503)
	l["admission.nofit"] = float64(full.nofit)
	l["admission.quota"] = float64(full.quota)
	l["admission.snapshot_ms"] = full.snapshotMS
	l["admission.restore_ms"] = full.restoreMS
	return nil
}
