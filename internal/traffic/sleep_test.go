package traffic

import (
	"fmt"
	"slices"
	"testing"

	"daelite/internal/ni"
	"daelite/internal/sim"
)

// reference replays a source's injection process one cycle at a time,
// as an endpoint evaluated every cycle does, from cycle first until
// limit words, and returns the cycle of each word.
func reference(cfg SourceConfig, first uint64) []uint64 {
	rng := sim.NewRNG(cfg.Seed)
	var at []uint64
	accum, burstLeft := 0.0, 0
	for cy := first; uint64(len(at)) < cfg.Limit; cy++ {
		want := 0
		switch cfg.Pattern {
		case CBR:
			accum += cfg.Rate
			for accum >= 1 {
				accum--
				want++
			}
		case Bursty:
			if burstLeft > 0 {
				want = 1
				burstLeft--
			} else if rng.Float64() < cfg.Rate/float64(cfg.BurstLen) {
				burstLeft = cfg.BurstLen - 1
				want = 1
			}
		}
		for range min(want, int(cfg.Limit)-len(at)) {
			at = append(at, cy)
		}
	}
	return at
}

// TestSourcesSleepBetweenInjections: a source that sleeps until its next
// injecting cycle submits every word in the cycle a source evaluated
// every cycle would, under the kernel's audit, with and without
// fast-forward.
func TestSourcesSleepBetweenInjections(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SourceConfig
	}{
		{"cbr-0.07", SourceConfig{Pattern: CBR, Rate: 0.07, Limit: 60, Seed: 1}},
		{"cbr-1/3", SourceConfig{Pattern: CBR, Rate: 1.0 / 3, Limit: 60, Seed: 1}},
		{"bursty-0.04x3", SourceConfig{Pattern: Bursty, Rate: 0.04, BurstLen: 3, Limit: 60, Seed: 9}},
	} {
		cfg := tc.cfg
		for _, ff := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ff=%v", tc.name, ff), func(t *testing.T) {
				p, c := platformWithConn(t, 4)
				p.Sim.Audit(func(msg string) { t.Fatal(msg) })
				if ff {
					p.Sim.EnableFastForward()
				}
				first := p.Sim.Cycle()
				src := NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel, cfg)
				sink := NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
				var got []uint64
				sink.SetVerify(func(d ni.Delivery) error {
					got = append(got, d.Tag.SubmitCycle)
					return nil
				})
				p.Sim.Run(4000)
				if src.Rejected() != 0 || !src.Done() {
					t.Fatalf("source sent %d, rejected %d", src.Sent(), src.Rejected())
				}
				if want := reference(cfg, first); !slices.Equal(got, want) {
					t.Fatalf("submitted at\n%v\nwant\n%v", got, want)
				}
				if ff != (p.Sim.SkippedCycles() > 0) {
					t.Fatalf("fast-forward %v skipped %d cycles", ff, p.Sim.SkippedCycles())
				}
			})
		}
	}
}

// TestAuditCatchesASinkAsleepOnAWord plants a wrong sleep: a sink put to
// sleep while a word waits in its queue. Unaudited, the word is never
// drained; audited, the sink's Eval takes it and its Recv wakes the NI,
// which fails the run at that cycle, naming the sink and the NI.
func TestAuditCatchesASinkAsleepOnAWord(t *testing.T) {
	for _, audited := range []bool{false, true} {
		p, c := platformWithConn(t, 2)
		var msgs []string
		if audited {
			p.Sim.Audit(func(msg string) { msgs = append(msgs, msg) })
		}
		dst := p.NI(c.Spec.Dst)
		sink := NewSink(p.Sim, "sink", dst, c.DstChannel)
		NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel, SourceConfig{Pattern: CBR, Rate: 1, Limit: 1})
		if _, ok := p.Sim.RunUntil(func() bool { return dst.RecvLen(c.DstChannel) > 0 }, 1000); !ok {
			t.Fatal("the word never arrived")
		}
		sink.act.Sleep() // the planted fault
		at := p.Sim.Cycle()
		p.Sim.Run(100)
		if !audited {
			if sink.Received() != 0 || dst.RecvLen(c.DstChannel) != 1 {
				t.Fatalf("the sleeping sink received %d words", sink.Received())
			}
			continue
		}
		want := fmt.Sprintf("sleep audit: cycle %d: sink would be asleep but woke %s", at, dst.Name())
		if len(msgs) != 1 || msgs[0] != want {
			t.Fatalf("audit said %q, want exactly %q", msgs, want)
		}
	}
}

// TestSinksShareAChannel: every sink registered on a channel wakes when
// a word arrives and the first in registration order takes it; a
// detached sink no longer wakes and the other drains everything.
func TestSinksShareAChannel(t *testing.T) {
	p, c := platformWithConn(t, 2)
	p.Sim.Audit(func(msg string) { t.Fatal(msg) })
	dst := p.NI(c.Spec.Dst)
	a := NewSink(p.Sim, "a", dst, c.DstChannel)
	b := NewSink(p.Sim, "b", dst, c.DstChannel)
	NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel, SourceConfig{Pattern: CBR, Rate: 0.05, Limit: 20})
	p.Sim.Run(300)
	if a.Received() == 0 || b.Received() != 0 {
		t.Fatalf("a received %d, b %d; want all to a", a.Received(), b.Received())
	}
	a.Detach()
	p.Sim.Run(1000)
	if a.Received()+b.Received() != 20 || b.Received() == 0 {
		t.Fatalf("a received %d, b %d of 20", a.Received(), b.Received())
	}
}

// TestReplayerSleepsUntilItsEvents: a replayer sleeps between events and
// a recorder between deliveries, under the audit; with fast-forward the
// run skips the gaps of the trace and records the same events.
func TestReplayerSleepsUntilItsEvents(t *testing.T) {
	events := []Event{{Cycle: 300, Word: 1}, {Cycle: 301, Word: 2}, {Cycle: 900, Word: 3}, {Cycle: 2000, Word: 4}}
	run := func(ff bool) ([]Event, uint64) {
		p, c := platformWithConn(t, 2)
		p.Sim.Audit(func(msg string) { t.Fatal(msg) })
		if ff {
			p.Sim.EnableFastForward()
		}
		rep := NewReplayer(p.Sim, "rep", p.NI(c.Spec.Src), c.SrcChannel, events)
		rec := NewRecorder(p.Sim, "rec", p.NI(c.Spec.Dst), c.DstChannel)
		p.Sim.Run(3000)
		if !rep.Done() || rep.Late() != 0 {
			t.Fatalf("replayer sent %d, late %d", rep.Sent(), rep.Late())
		}
		return rec.Events(), p.Sim.SkippedCycles()
	}
	want, _ := run(false)
	got, skipped := run(true)
	if len(want) != len(events) || !slices.Equal(got, want) {
		t.Fatalf("fast-forwarded run recorded %v, stepped run %v", got, want)
	}
	if skipped < 2000 {
		t.Fatalf("skipped %d cycles of a 3000-cycle run with four events", skipped)
	}
}
