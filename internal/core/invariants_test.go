package core

import (
	"testing"
	"testing/quick"

	"daelite/internal/analysis"
	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/topology"
)

// TestCreditConservation pins the end-to-end flow control invariant: at
// any quiescent point (no words or credits in flight), the source credit
// counter plus the words sitting in the destination receive queue plus
// the destination's unreturned-delivery counter equals the receive queue
// capacity. Words are sent and consumed in random interleavings.
func TestCreditConservation(t *testing.T) {
	f := func(seed uint64) bool {
		params := DefaultParams()
		params.RecvQueueDepth = 12
		params.SendQueueDepth = 32
		p, err := NewMeshPlatform(meshSpec22(), params, 0, 0)
		if err != nil {
			return false
		}
		c, err := p.Open(ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(1, 1, 0), SlotsFwd: 2})
		if err != nil {
			return false
		}
		if err := p.AwaitOpen(c, 100000); err != nil {
			return false
		}
		src, dst := p.NI(c.Spec.Src), p.NI(c.Spec.Dst)
		rng := sim.NewRNG(seed)
		for step := 0; step < 30; step++ {
			switch rng.Intn(3) {
			case 0:
				for i := 0; i < rng.Intn(6); i++ {
					src.Send(c.SrcChannel, phit.Word(step))
				}
			case 1:
				for i := 0; i < rng.Intn(6); i++ {
					dst.Recv(c.DstChannel)
				}
			case 2:
				p.Run(uint64(rng.Intn(50)))
			}
		}
		// Quiesce: stop sending and consuming, let all words and
		// credits land; pending send-queue words still drain into the
		// network, so wait until the send queue is empty too.
		p.Sim.RunUntil(func() bool { return src.SendQueueLen(c.SrcChannel) == 0 }, 10000)
		p.Run(2 * uint64(params.Wheel*params.SlotWords*4))
		total := src.Credit(c.SrcChannel) + dst.RecvLen(c.DstChannel)
		// The destination's delivered-but-unreturned counter is the
		// remaining piece; read it over the configuration network.
		delivered, err := p.ReadRegister(c.Spec.Dst, cfgproto.RegSelect(cfgproto.RegDelivered, c.DstChannel), 10000)
		if err != nil {
			return false
		}
		return total+int(delivered) == params.RecvQueueDepth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestNoLossUnderRandomTraffic drives random send/consume patterns and
// checks exactly-once in-order delivery of every accepted word.
func TestNoLossUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64) bool {
		p, err := NewMeshPlatform(meshSpec22(), DefaultParams(), 0, 0)
		if err != nil {
			return false
		}
		c, err := p.Open(ConnectionSpec{Src: p.Mesh.NI(1, 0, 0), Dst: p.Mesh.NI(0, 1, 0), SlotsFwd: 3})
		if err != nil {
			return false
		}
		if err := p.AwaitOpen(c, 100000); err != nil {
			return false
		}
		src, dst := p.NI(c.Spec.Src), p.NI(c.Spec.Dst)
		rng := sim.NewRNG(seed)
		sent := uint64(0)
		received := uint64(0)
		for step := 0; step < 60; step++ {
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				if src.Send(c.SrcChannel, phit.Word(sent)) {
					sent++
				}
			}
			p.Run(uint64(1 + rng.Intn(30)))
			for {
				d, ok := dst.Recv(c.DstChannel)
				if !ok {
					break
				}
				if d.Word != phit.Word(received) {
					return false // order violated
				}
				received++
			}
		}
		// Drain.
		for i := 0; i < 100 && received < sent; i++ {
			p.Run(32)
			for {
				d, ok := dst.Recv(c.DstChannel)
				if !ok {
					break
				}
				if d.Word != phit.Word(received) {
					return false
				}
				received++
			}
		}
		return received == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func meshSpec22() topology.MeshSpec {
	return topology.MeshSpec{Width: 2, Height: 2, NIsPerRouter: 1}
}

// TestLatencyRateBoundHoldsForBursts validates the latency-rate server
// abstraction against the cycle model: a (sigma, rho)-constrained bursty
// source must never see a word delayed beyond Theta + sigma/Rho.
func TestLatencyRateBoundHoldsForBursts(t *testing.T) {
	params := DefaultParams()
	params.Wheel = 16
	params.SendQueueDepth = 64
	p, err := NewMeshPlatform(meshSpec22(), params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Open(ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(1, 1, 0), SlotsFwd: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		t.Fatal(err)
	}
	server := analysis.UnicastGuarantees(p.Mesh.Graph, c.Fwd, params.SlotWords).Server

	// Bursts of sigma words, long gaps: rate well under Rho.
	const sigma = 8
	src, dst := p.NI(c.Spec.Src), p.NI(c.Spec.Dst)
	bound := server.MaxDelay(sigma)
	var worst uint64
	sent := 0
	for burst := 0; burst < 12; burst++ {
		for i := 0; i < sigma; i++ {
			if !src.Send(c.SrcChannel, phit.Word(sent)) {
				t.Fatalf("burst word %d rejected", sent)
			}
			sent++
		}
		p.Run(200) // gap long enough to drain
		for {
			d, ok := dst.Recv(c.DstChannel)
			if !ok {
				break
			}
			if lat := d.Cycle - d.Tag.SubmitCycle; lat > worst {
				worst = lat
			}
		}
	}
	if float64(worst) > bound+2 {
		t.Fatalf("measured worst burst delay %d exceeds LR bound %.0f", worst, bound)
	}
	if worst == 0 {
		t.Fatal("nothing measured")
	}
}
