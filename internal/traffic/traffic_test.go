package traffic

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"daelite/internal/core"
	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/topology"
)

func platformWithConn(t testing.TB, slotsFwd int) (*core.Platform, *core.Connection) {
	t.Helper()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 2, Height: 2, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Open(core.ConnectionSpec{
		Src:      p.Mesh.NI(0, 0, 0),
		Dst:      p.Mesh.NI(1, 1, 0),
		SlotsFwd: slotsFwd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 10000); err != nil {
		t.Fatal(err)
	}
	return p, c
}

func TestCBRSourceToSink(t *testing.T) {
	p, c := platformWithConn(t, 2)
	src := NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel, SourceConfig{
		Pattern: CBR, Rate: 0.2, Limit: 100, Seed: 1,
	})
	sink := NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
	sink.SetVerify(func(d ni.Delivery) error {
		if d.Word != phit.Word(d.Tag.Seq) {
			return fmt.Errorf("payload %#x != seq %d", d.Word, d.Tag.Seq)
		}
		return nil
	})
	p.Sim.RunUntil(func() bool { return sink.Received() >= 100 }, 100000)
	if sink.Received() != 100 {
		t.Fatalf("received %d of 100 (src sent %d, rejected %d)", sink.Received(), src.Sent(), src.Rejected())
	}
	if err := sink.VerifyErr(); err != nil {
		t.Fatal(err)
	}
	if sink.OutOfOrder() != 0 {
		t.Fatalf("out of order: %d", sink.OutOfOrder())
	}
	st := sink.Stats()
	if st.Count != 100 || st.MinLat == 0 || st.MaxLat < st.MinLat {
		t.Fatalf("stats broken: %s", st)
	}
	if !src.Done() {
		t.Fatal("source not done")
	}
}

func TestBurstySource(t *testing.T) {
	p, c := platformWithConn(t, 2)
	src := NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel, SourceConfig{
		Pattern: Bursty, Rate: 0.15, BurstLen: 4, Limit: 80, Seed: 7,
	})
	sink := NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
	p.Sim.RunUntil(func() bool { return sink.Received() >= 80 }, 200000)
	if sink.Received() != 80 {
		t.Fatalf("received %d of 80 (sent %d)", sink.Received(), src.Sent())
	}
	// Network traversal latency is constant on a single path, but the
	// end-to-end latency must show queueing behind bursts.
	if st := sink.Stats(); st.MaxLat != st.MinLat {
		t.Fatalf("traversal latency not constant: min %d max %d", st.MinLat, st.MaxLat)
	}
	if tot := sink.TotalStats(); tot.MaxLat <= tot.MinLat {
		t.Fatalf("burst queueing invisible: min %d max %d", tot.MinLat, tot.MaxLat)
	}
}

func TestRateLimitedSink(t *testing.T) {
	p, c := platformWithConn(t, 4)
	NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel, SourceConfig{
		Pattern: CBR, Rate: 0.5, Limit: 60, Seed: 3,
	})
	sink := NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
	sink.MaxPerCycle = 1
	p.Sim.RunUntil(func() bool { return sink.Received() >= 60 }, 100000)
	if sink.Received() != 60 {
		t.Fatalf("received %d of 60", sink.Received())
	}
}

func TestStats(t *testing.T) {
	var s Stats
	for _, v := range []uint64{10, 20, 30, 40, 50} {
		s.Observe(v)
	}
	if s.Count != 5 || s.MinLat != 10 || s.MaxLat != 50 {
		t.Fatalf("stats: %+v", s)
	}
	if s.Mean() != 30 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if got := s.Percentile(50); got != 30 {
		t.Fatalf("p50 = %d", got)
	}
	if got := s.Percentile(100); got != 50 {
		t.Fatalf("p100 = %d", got)
	}
	if got := s.Percentile(1); got != 10 {
		t.Fatalf("p1 = %d", got)
	}
	empty := Stats{}
	if empty.String() != "no deliveries" {
		t.Fatalf("empty string: %q", empty.String())
	}
	if empty.Percentile(50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestReplayerAndRecorder(t *testing.T) {
	p, c := platformWithConn(t, 2)
	events := []Event{
		{Cycle: 10, Word: 0xA},
		{Cycle: 12, Word: 0xB},
		{Cycle: 40, Word: 0xC},
		{Cycle: 200, Word: 0xD},
	}
	rep := NewReplayer(p.Sim, "rep", p.NI(c.Spec.Src), c.SrcChannel, events)
	rec := NewRecorder(p.Sim, "rec", p.NI(c.Spec.Dst), c.DstChannel)
	p.Sim.RunUntil(func() bool { return len(rec.Events()) == len(events) }, 100000)
	got := rec.Events()
	if len(got) != 4 {
		t.Fatalf("recorded %d of 4", len(got))
	}
	for i, e := range events {
		if got[i].Word != e.Word {
			t.Fatalf("event %d word %#x, want %#x", i, got[i].Word, e.Word)
		}
		if got[i].Cycle < e.Cycle {
			t.Fatalf("event %d delivered before it was injected", i)
		}
	}
	// Inter-arrival gaps reflect the trace: the last word comes much
	// later than the first three.
	if got[3].Cycle-got[2].Cycle < 100 {
		t.Fatalf("trace timing not preserved: %v", got)
	}
	if !rep.Done() || rep.Sent() != 4 {
		t.Fatalf("replayer state: done=%v sent=%d", rep.Done(), rep.Sent())
	}
}

func TestReplayerBackpressure(t *testing.T) {
	p, c := platformWithConn(t, 1)
	// Burst far beyond the send queue at cycle 0: words must still all
	// arrive, in order, with Late counting the stalls.
	var events []Event
	for i := 0; i < 40; i++ {
		events = append(events, Event{Cycle: 0, Word: phit.Word(i)})
	}
	rep := NewReplayer(p.Sim, "rep", p.NI(c.Spec.Src), c.SrcChannel, events)
	rec := NewRecorder(p.Sim, "rec", p.NI(c.Spec.Dst), c.DstChannel)
	p.Sim.RunUntil(func() bool { return len(rec.Events()) == 40 }, 200000)
	got := rec.Events()
	if len(got) != 40 {
		t.Fatalf("recorded %d of 40", len(got))
	}
	for i := range got {
		if got[i].Word != phit.Word(i) {
			t.Fatalf("order violated at %d", i)
		}
	}
	if rep.Late() == 0 {
		t.Fatal("backpressure invisible")
	}
}

// TestStatsPercentileOverAllSamples observes more than 2^20 latencies,
// the tail of them larger than the rest, and checks every percentile
// against the nearest rank over all of them.
func TestStatsPercentileOverAllSamples(t *testing.T) {
	var s Stats
	var all []uint64
	x := uint64(1)
	for i := 0; i < 1<<20+1<<18; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		lat := x >> 57 // 0..127
		if i >= 1<<20 {
			lat += 128
		}
		s.Observe(lat)
		all = append(all, lat)
	}
	slices.Sort(all)
	for _, p := range []float64{0.1, 1, 50, 80, 81, 90, 99, 99.9, 100} {
		rank := int(math.Ceil(p / 100 * float64(len(all))))
		if got, want := s.Percentile(p), all[rank-1]; got != want {
			t.Errorf("p%v = %d, want %d", p, got, want)
		}
	}
}

// TestStatsAllocFree pins that recording and reading latencies below the
// maximum seen allocates nothing.
func TestStatsAllocFree(t *testing.T) {
	var s Stats
	s.Observe(300)
	lat := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Observe(lat % 300)
		lat += 7
		_ = s.Percentile(99)
	}); allocs != 0 {
		t.Fatalf("Observe+Percentile allocate %v objects per call", allocs)
	}
}
