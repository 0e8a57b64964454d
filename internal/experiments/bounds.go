package experiments

import (
	"fmt"

	"daelite/internal/analysis"
	"daelite/internal/core"
	"daelite/internal/sim"
	"daelite/internal/traffic"
)

// latencyBoundOnce opens a few random connections, runs light CBR traffic
// on all of them, and verifies the measured worst-case end-to-end latency
// of every stream stays within the analytical guarantee computed from its
// slot mask and path length — the property that makes the network usable
// for real-time verification ([15] CoMPSoC-style reasoning).
func latencyBoundOnce(seed uint64) error {
	p, err := daelitePlatform(3, 3, 16)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	type stream struct {
		conn  *core.Connection
		sink  *traffic.Sink
		bound int
	}
	var streams []stream
	for len(streams) < 5 {
		src := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		dst := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		if src == dst {
			continue
		}
		c, err := p.Open(core.ConnectionSpec{Src: src, Dst: dst, SlotsFwd: 1 + rng.Intn(3)})
		if err != nil {
			continue
		}
		if err := p.AwaitOpen(c, 200000); err != nil {
			return err
		}
		gu := analysis.UnicastGuarantees(p.Mesh.Graph, c.Fwd, p.Params.SlotWords)
		// Keep the offered rate below the reservation so that queueing
		// beyond one word cannot occur (the bound covers scheduling,
		// not open-ended queueing).
		rate := 0.5 * gu.Bandwidth
		traffic.NewSource(p.Sim, fmt.Sprintf("bsrc%d", c.ID), p.NI(src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: rate, Limit: 150, Seed: rng.Uint64()})
		sink := traffic.NewSink(p.Sim, fmt.Sprintf("bsink%d", c.ID), p.NI(dst), c.DstChannel)
		streams = append(streams, stream{conn: c, sink: sink, bound: gu.WorstCaseLatency})
	}
	p.Sim.RunUntil(func() bool {
		for _, st := range streams {
			if st.sink.Received() < 150 {
				return false
			}
		}
		return true
	}, 2_000_000)
	for _, st := range streams {
		if st.sink.Received() < 150 {
			return fmt.Errorf("stream on connection %d starved (%d received)", st.conn.ID, st.sink.Received())
		}
		worst := st.sink.TotalStats().MaxLat
		if worst > uint64(st.bound+analysis.CommitSlack) {
			return fmt.Errorf("connection %d: measured worst %d > bound %d",
				st.conn.ID, worst, st.bound)
		}
	}
	return nil
}
