package core

import (
	"testing"

	"daelite/internal/traffic"
)

// ffWorkload runs a fixed scripted workload — two connections, bounded
// sources, three replayed words at odd cycles, a teardown partway
// through — and returns an FNV digest over every valid flit on every
// link wire (data and cycle), the delivered word counts, the number of
// fast-forwarded cycles and the skips taken. The digest must be
// bit-identical with fast-forward on and off.
func ffWorkload(t *testing.T, ff bool) (digest uint64, skipped uint64, skips [][2]uint64) {
	t.Helper()
	params := DefaultParams()
	params.FastForward = ff
	p := newTestPlatform(t, 3, 3, params)

	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	var wires []*flitWire
	for _, l := range p.Mesh.Links() {
		wires = append(wires, p.LinkWire(l))
	}
	p.Sim.AddProbe(func(cycle uint64) {
		for _, w := range wires {
			if f := w.Get(); f.Valid {
				mix(uint64(f.Data))
				mix(cycle)
			}
		}
	})

	c1 := openUnicast(t, p, 0, 0, 2, 2, 2)
	c2 := openUnicast(t, p, 2, 0, 0, 2, 1)
	traffic.NewSource(p.Sim, "src1", p.NI(c1.Spec.Src), c1.SrcChannel,
		traffic.SourceConfig{Rate: 0.3, Limit: 50, Seed: 7})
	traffic.NewSource(p.Sim, "src2", p.NI(c2.Spec.Src), c2.SrcChannel,
		traffic.SourceConfig{Pattern: traffic.Bursty, Rate: 0.2, Limit: 30, Seed: 11})
	k1 := traffic.NewSink(p.Sim, "sink1", p.NI(c1.Spec.Dst), c1.DstChannel)
	k2 := traffic.NewSink(p.Sim, "sink2", p.NI(c2.Spec.Dst), c2.DstChannel)
	// The replayer's events end skips at cycles no hyper-period divides.
	traffic.NewReplayer(p.Sim, "replay", p.NI(c1.Spec.Src), c1.SrcChannel,
		[]traffic.Event{{Cycle: 3001, Word: 1}, {Cycle: 3002, Word: 2}, {Cycle: 5003, Word: 3}})
	p.Sim.AddFastForwardHook(func(from, to uint64) { skips = append(skips, [2]uint64{from, to}) })

	// Long settled stretch after the bounded sources drain.
	p.Run(6000)
	// Teardown drops back to cycle-accurate execution, then settles again.
	if err := p.Close(c2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CompleteConfig(10000); err != nil {
		t.Fatal(err)
	}
	p.Run(4000)

	if k1.Received() != 53 || k2.Received() != 30 {
		t.Fatalf("ff=%v: received %d/%d, want 53/30", ff, k1.Received(), k2.Received())
	}
	mix(k1.Received())
	mix(k2.Received())
	mix(p.Cycle())
	return h, p.Sim.SkippedCycles(), skips
}

func TestFastForwardMatchesCycleAccurate(t *testing.T) {
	ref, refSkip, _ := ffWorkload(t, false)
	if refSkip != 0 {
		t.Fatalf("cycle-accurate run skipped %d cycles", refSkip)
	}
	got, skip, skips := ffWorkload(t, true)
	if skip == 0 {
		t.Fatal("fast-forward never engaged on a settled platform")
	}
	// A skip may end anywhere: the one up to the first replayed word
	// ends at its cycle, whatever its length modulo the hyper-period.
	period := uint64(DefaultParams().Wheel * DefaultParams().SlotWords)
	odd := false
	for _, sk := range skips {
		odd = odd || sk[1] == 3001 && (sk[1]-sk[0])%period != 0
	}
	if !odd {
		t.Fatalf("no skip ended at cycle 3001 with a length off the %d-cycle hyper-period: %v", period, skips)
	}
	if got != ref {
		t.Fatalf("digest mismatch: fast-forward %#x, cycle-accurate %#x (skipped %d)", got, ref, skip)
	}
}

// TestSilentConnectionsSleep: once set up, open connections that carry
// no words cost (almost) nothing: no NI drives a zero-credit slot, so
// every NI and router on their paths sleeps.
func TestSilentConnectionsSleep(t *testing.T) {
	p := newTestPlatform(t, 4, 4, DefaultParams())
	for x := 0; x < 4; x++ {
		for y := 0; y < 2; y++ {
			openUnicast(t, p, x, y, 3-x, 3-y, 1)
		}
	}
	e0, o0 := p.Sim.Evaluations()
	p.Run(2000)
	e1, o1 := p.Sim.Evaluations()
	if 20*(e1-e0) >= o1-o0 {
		t.Fatalf("8 silent connections: evaluated %d of %d component-cycles, want < 5 %%", e1-e0, o1-o0)
	}
}
