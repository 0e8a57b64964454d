package experiments

import (
	"fmt"

	"daelite/internal/analysis"
	"daelite/internal/core"
	"daelite/internal/report"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// AttainedBandwidth (E14) closes the loop on the QoS claim: under full
// saturation of every connection simultaneously, each one must attain
// exactly its reserved bandwidth — no more, no less — because TDM slots
// are exclusive. Four concurrent connections with different reservations
// share links on a 3x3 mesh; the delivered rate of each is measured over
// a long window.
func AttainedBandwidth() (*Result, error) {
	r := newResult("E14", "attained vs reserved bandwidth (QoS claim)")
	const wheel = 16
	params := platformParams(wheel)
	params.SendQueueDepth = 64
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		return nil, err
	}
	type job struct {
		name  string
		conn  *core.Connection
		sink  *traffic.Sink
		slots int
	}
	reqs := []struct {
		name           string
		sx, sy, dx, dy int
		slots          int
	}{
		{"A (6/16)", 0, 0, 2, 1, 6},
		{"B (4/16)", 1, 0, 1, 2, 4},
		{"C (2/16)", 2, 0, 0, 1, 2},
		{"D (1/16)", 0, 2, 2, 2, 1},
	}
	var jobs []job
	for _, q := range reqs {
		c, err := p.Open(core.ConnectionSpec{
			Src: p.Mesh.NI(q.sx, q.sy, 0), Dst: p.Mesh.NI(q.dx, q.dy, 0), SlotsFwd: q.slots,
		})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{name: q.name, conn: c, slots: q.slots})
	}
	if _, err := p.CompleteConfig(1_000_000); err != nil {
		return nil, err
	}
	// Saturating sources (rate 1.0 keeps the queue full), free-running
	// sinks.
	for i := range jobs {
		c := jobs[i].conn
		traffic.NewSource(p.Sim, jobs[i].name+"-src", p.NI(c.Spec.Src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 1.0, Seed: uint64(i + 1)})
		jobs[i].sink = traffic.NewSink(p.Sim, jobs[i].name+"-sink", p.NI(c.Spec.Dst), c.DstChannel)
	}
	// Warm up, then measure a window.
	p.Run(2048)
	var before []uint64
	for _, j := range jobs {
		before = append(before, j.sink.Received())
	}
	const window = 16000
	p.Run(window)

	t := report.NewTable("Attained vs reserved bandwidth under simultaneous saturation (3x3 mesh, 16 slots)",
		"Connection", "Reserved (words/cycle)", "Attained (words/cycle)", "Attained/Reserved")
	worst := 1.0
	for i, j := range jobs {
		reserved := analysis.GuaranteedBandwidth(j.conn.Fwd.Paths[0].InjectSlots)
		attained := float64(j.sink.Received()-before[i]) / window
		frac := attained / reserved
		if frac < worst {
			worst = frac
		}
		t.AddRow(j.name, fmt.Sprintf("%.4f", reserved), fmt.Sprintf("%.4f", attained), report.Percent(frac))
		r.Metrics[fmt.Sprintf("frac_%d", i)] = frac
	}
	r.Metrics["worst_fraction"] = worst
	r.Text = t.Render() + "\nEvery connection attains its reservation exactly: TDM slots are exclusive, so saturating neighbours cannot steal bandwidth.\n"
	return r, nil
}

// AblationLongLinks (A6) measures the cost of pipelined (mesochronous/
// long) links — the paper's future-work direction implemented in this
// repository: extra slots of latency per stage, plus the padding words
// configuration packets spend to step over them.
func AblationLongLinks() (*Result, error) {
	r := newResult("A6", "ablation: pipelined (long/mesochronous) links")
	t := report.NewTable("Long-link ablation (3x1 mesh, both router-router links pipelined, 16 slots)",
		"Stages per link", "Slot advance (path)", "Traversal latency (cycles)", "Setup words", "Setup cycles")
	for _, stages := range []int{0, 1, 2, 4} {
		params := platformParams(16)
		m, err := topology.NewMesh(topology.MeshSpec{Width: 3, Height: 1, NIsPerRouter: 1})
		if err != nil {
			return nil, err
		}
		for _, l := range m.Links() {
			if m.Node(l.From).Kind == topology.Router && m.Node(l.To).Kind == topology.Router {
				m.Graph.SetPipeline(l.ID, stages)
			}
		}
		p, err := core.NewPlatform(m, params, m.NI(0, 0, 0))
		if err != nil {
			return nil, err
		}
		c, err := openDaelite(p, m.NI(0, 0, 0), m.NI(2, 0, 0), 1)
		if err != nil {
			return nil, err
		}
		advance := m.Graph.PathSlotAdvance(c.Fwd.Paths[0].Path)
		lat, err := measureDaeliteLatency(p, c)
		if err != nil {
			return nil, err
		}
		model := analysis.TraversalCycles(advance, params.SlotWords)
		if int(lat) != model {
			return nil, fmt.Errorf("long-link latency %v != model %d", lat, model)
		}
		t.AddRow(stages, advance, fmt.Sprintf("%.0f", lat), c.Setup.Words, c.SetupCycles())
		r.Metrics[fmt.Sprintf("latency_s%d", stages)] = lat
		r.Metrics[fmt.Sprintf("setupwords_s%d", stages)] = float64(c.Setup.Words)
	}
	r.Text = t.Render() + "\nEach pipeline stage costs one TDM slot of latency and two padding words per set-up packet; scheduling stays contention-free.\n"
	return r, nil
}
