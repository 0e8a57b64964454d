// Telemetry: run a 4x4 mesh with four saturated guaranteed-service
// connections and a telemetry registry attached, then prove the QoS
// contract from the exported metrics alone — each connection's attained
// bandwidth, measured at the sinks over a long window, must equal its
// slot reservation. Finishes by printing the configuration spans and a
// Prometheus excerpt of the registry the run produced.
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"daelite"
)

func main() {
	params := daelite.DefaultParams()
	params.SendQueueDepth = 64 // keep saturating sources from stalling
	p, err := daelite.NewMeshPlatform(
		daelite.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Attach the registry before opening anything so the set-up spans of
	// every connection are counted.
	reg := daelite.NewTelemetryRegistry()
	p.AttachTelemetry(reg, 0)

	// Four connections with different reservations out of the 8-slot
	// wheel; rows don't overlap, but the guarantee would hold either way.
	reqs := []struct {
		row, slots int
	}{{0, 4}, {1, 2}, {2, 1}, {3, 1}}
	var conns []*daelite.Connection
	for _, q := range reqs {
		c, err := p.Open(daelite.ConnectionSpec{
			Src: p.Mesh.NI(0, q.row, 0), Dst: p.Mesh.NI(3, q.row, 0), SlotsFwd: q.slots,
		})
		if err != nil {
			log.Fatal(err)
		}
		conns = append(conns, c)
	}
	if _, err := p.CompleteConfig(1_000_000); err != nil {
		log.Fatal(err)
	}

	// Saturate every connection at once: rate 1.0 keeps the send queues
	// full, so each stream gets exactly what its TDM slots guarantee.
	var sinks []*daelite.Sink
	for i, c := range conns {
		daelite.NewSource(p, fmt.Sprintf("src%d", i), c.Spec.Src, c.SrcChannel,
			daelite.SourceConfig{Pattern: daelite.CBR, Rate: 1.0, Seed: uint64(i + 1)})
		sinks = append(sinks, daelite.NewSink(p, fmt.Sprintf("sink%d", i), c.Spec.Dst, c.DstChannel))
	}
	p.Run(2048) // warm-up
	before := make([]uint64, len(sinks))
	for i, s := range sinks {
		before[i] = s.Received()
	}
	const window = 16384
	p.Run(window)

	fmt.Println("attained vs reserved bandwidth (words/cycle):")
	for i, c := range conns {
		reserved := daelite.GuaranteesOf(p, c).Bandwidth
		attained := float64(sinks[i].Received()-before[i]) / window
		fmt.Printf("  conn %d (%d slots): attained %.4f, reserved %.4f\n",
			i, reqs[i].slots, attained, reserved)
		if math.Abs(attained-reserved)/reserved > 0.02 {
			log.Fatalf("conn %d attained %.4f != reserved %.4f", i, attained, reserved)
		}
	}
	fmt.Println("every connection attains exactly its reservation: TDM slots are exclusive")

	// The same story from the platform: each connection's set-up span,
	// then the registry's span counters and the harvested counters
	// behind the numbers above.
	p.FlushTelemetry()
	fmt.Println("\nconfiguration spans:")
	for _, c := range conns {
		s := c.Setup
		fmt.Printf("  %s %s: submitted @%d, settled @%d (%d cycles, %d words)\n",
			s.Op, s.Detail, s.SubmitCycle, s.SettleCycle, s.Cycles(), s.Words)
	}
	var b strings.Builder
	if err := daelite.WritePrometheus(&b, reg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPrometheus snapshot: %d metrics; excerpt:\n", reg.NumMetrics())
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "daelite_cycle") ||
			strings.HasPrefix(line, "daelite_config_span") ||
			strings.Contains(line, `{ni="NI03"`) {
			fmt.Println("  " + line)
		}
	}
}
