// Video pipeline: the SoC workload the paper's introduction motivates —
// a high-throughput video stream (camera -> scaler -> encoder) sharing the
// network with low-latency cache-miss traffic, each with its own hard
// guarantee. The platform is described declaratively (internal/spec), the
// streams run concurrently, and the measured latencies are checked
// against each connection's analytical worst-case bound.
package main

import (
	"fmt"
	"log"
	"strings"

	"daelite/internal/analysis"
	"daelite/internal/spec"
	"daelite/internal/traffic"
)

const platformJSON = `{
  "mesh": {"width": 4, "height": 4},
  "params": {"wheel": 16},
  "host": {"x": 0, "y": 0},
  "connections": [
    {"name": "camera-scaler",  "src": {"x": 3, "y": 0}, "dst": {"x": 1, "y": 1}, "slotsFwd": 6, "rate": 0.30},
    {"name": "scaler-encoder", "src": {"x": 1, "y": 1}, "dst": {"x": 2, "y": 3}, "slotsFwd": 6, "rate": 0.30},
    {"name": "cpu-mem",        "src": {"x": 0, "y": 3}, "dst": {"x": 3, "y": 3}, "slotsFwd": 2, "rate": 0.05},
    {"name": "dsp-mem",        "src": {"x": 0, "y": 1}, "dst": {"x": 3, "y": 3}, "slotsFwd": 1, "rate": 0.02}
  ]
}`

func main() {
	s, err := spec.Parse(strings.NewReader(platformJSON))
	if err != nil {
		log.Fatal(err)
	}
	inst, err := s.Build()
	if err != nil {
		log.Fatal(err)
	}
	p := inst.Platform
	fmt.Printf("platform built: %d connections configured by cycle %d\n",
		len(inst.Connections), p.Cycle())

	type stream struct {
		name  string
		sink  *traffic.Sink
		bound int
	}
	var streams []stream
	for i, cs := range s.Connections {
		c := inst.Connections[i]
		g := analysis.UnicastGuarantees(p.Mesh.Graph, c.Fwd, p.Params.SlotWords)
		bound, bw := g.WorstCaseLatency, g.Bandwidth
		fmt.Printf("%-15s %d slots -> guaranteed %.3f words/cycle, worst-case latency %d cycles\n",
			cs.Name, cs.SlotsFwd, bw, bound)
		traffic.NewSource(p.Sim, cs.Name+"-src", p.NI(c.Spec.Src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: cs.Rate, Seed: uint64(i + 1)})
		sink := traffic.NewSink(p.Sim, cs.Name+"-sink", p.NI(c.Spec.Dst), c.DstChannel)
		streams = append(streams, stream{name: cs.Name, sink: sink, bound: bound})
	}

	p.Run(30_000)

	fmt.Println("\nafter 30k cycles of concurrent operation:")
	ok := true
	for _, st := range streams {
		tot := st.sink.TotalStats()
		fmt.Printf("%-15s delivered %6d words, end-to-end latency mean %.1f / worst %d (bound %d)\n",
			st.name, st.sink.Received(), tot.Mean(), tot.MaxLat, st.bound)
		if tot.MaxLat > uint64(st.bound+analysis.CommitSlack) {
			ok = false
		}
	}
	if !ok {
		log.Fatal("a guarantee was violated")
	}
	fmt.Println("every stream stayed within its analytical guarantee — QoS holds under full concurrency")
}
