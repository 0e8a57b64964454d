package experiments

import (
	"fmt"
	"time"

	"daelite/internal/core"
	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/report"
	"daelite/internal/sim"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// BigMesh is a full W x H torus platform — routers, NIs, per-region
// configuration trees — whose connections were set up through the real
// configuration path. Before hierarchical config regions the 7-bit
// element-ID space capped a configured platform at 127 elements and this
// structure was a datapath-only approximation with directly programmed
// slot tables; now a 16x16 torus (512 elements, six column-band regions)
// opens its connections through region-enveloped configuration packets
// like any small platform. One connection per row carries CBR traffic
// from column 0 halfway around the ring, so every row moves live payload
// each cycle and the delivered word stream folds into a deterministic
// fingerprint.
type BigMesh struct {
	Sim           *sim.Simulator
	Platform      *core.Platform
	Width, Height int

	conns  []*core.Connection
	sinks  []*traffic.Sink
	hashes []uint64
}

// fnvMix folds v into an FNV-1a style running hash.
func fnvMix(h, v uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xFF
		h *= 1099511628211
	}
	return h
}

// BuildBigMesh assembles a Width x Height torus platform with the given
// TDM wheel and opens one guaranteed-bandwidth connection per row through
// the configuration trees.
func BuildBigMesh(width, height, wheel int) (*BigMesh, error) {
	return BuildBigMeshFF(width, height, wheel, 0, false)
}

// BuildBigMeshFF is BuildBigMesh with bounded sources (limit words per
// row, 0 = unlimited) and optional fast-forwarding — the E22 harness.
// Bounded sources drain, so the platform eventually settles and a
// fast-forwarding kernel can start skipping cycles.
func BuildBigMeshFF(width, height, wheel int, limit uint64, ff bool) (*BigMesh, error) {
	params := core.DefaultParams()
	params.Wheel = wheel
	params.FastForward = ff
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: width, Height: height, NIsPerRouter: 1, Wrap: true}, params, 0, 0)
	if err != nil {
		return nil, err
	}
	bm := &BigMesh{Sim: p.Sim, Platform: p, Width: width, Height: height}

	// One connection per row: NI(0,y) -> NI(width/2,y). On a 16-wide
	// torus the path crosses several config regions, so the set-up
	// exercises packet splitting and region-select envelopes.
	for y := 0; y < height; y++ {
		c, err := p.Open(core.ConnectionSpec{
			Src: p.Mesh.NI(0, y, 0), Dst: p.Mesh.NI(width/2, y, 0), SlotsFwd: 2,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: big mesh row %d: %w", y, err)
		}
		bm.conns = append(bm.conns, c)
	}
	for _, c := range bm.conns {
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			return nil, err
		}
	}

	// CBR traffic on every row, below the 2-slot reservation so flow
	// control never throttles the fingerprint stream; the sinks fold
	// every delivered word and arrival cycle into per-row hashes.
	bm.hashes = make([]uint64, len(bm.conns))
	for i, c := range bm.conns {
		y := i
		traffic.NewSource(p.Sim, fmt.Sprintf("bigmesh-src-row%d", y), p.NI(c.Spec.Src), c.SrcChannel,
			traffic.SourceConfig{
				Pattern: traffic.CBR,
				Rate:    0.2,
				Limit:   limit,
				Payload: func(seq uint64) phit.Word { return phit.Word(seq*2654435761 + uint64(y)*977) },
			})
		sink := traffic.NewSink(p.Sim, fmt.Sprintf("bigmesh-sink-row%d", y), p.NI(c.Spec.Dst), c.DstChannel)
		idx := i
		sink.SetVerify(func(d ni.Delivery) error {
			bm.hashes[idx] = fnvMix(bm.hashes[idx], uint64(d.Word))
			bm.hashes[idx] = fnvMix(bm.hashes[idx], d.Cycle)
			return nil
		})
		bm.sinks = append(bm.sinks, sink)
	}
	return bm, nil
}

// Run advances the mesh n cycles.
func (bm *BigMesh) Run(n uint64) { bm.Sim.Run(n) }

// Flits returns the total words delivered to all row sinks.
func (bm *BigMesh) Flits() uint64 {
	var total uint64
	for _, k := range bm.sinks {
		total += k.Received()
	}
	return total
}

// Fingerprint folds every row's delivery hash and count into one value;
// two runs are bit-identical iff their fingerprints match.
func (bm *BigMesh) Fingerprint() uint64 {
	var h uint64
	for i, k := range bm.sinks {
		h = fnvMix(h, bm.hashes[i])
		h = fnvMix(h, k.Received())
	}
	return fnvMix(h, bm.Sim.Cycle())
}

// Connections returns the per-row connections (opened through the
// configuration trees), for callers that inspect set-up spans.
func (bm *BigMesh) Connections() []*core.Connection { return bm.conns }

// ScalingThroughput is experiment E16: full-system throughput (simulated
// cycles per wall-clock second) versus mesh size, on complete torus
// platforms set up through the real configuration path — including
// 16x16, which only exists thanks to hierarchical config regions. The
// cycles/sec numbers are wall-clock measurements and machine-dependent,
// so E16 is excluded from the golden experiment output (All) and
// surfaces through daelite-bench -json instead.
func ScalingThroughput() (*Result, error) {
	res := newResult("E16", "kernel scaling")
	type size struct{ w, h int }
	sizes := []size{{4, 4}, {8, 8}, {16, 16}}
	const cycles = 2000

	t := report.NewTable("E16 — simulated cycles/sec vs mesh size (full platforms, regioned set-up)",
		"Mesh", "Elements", "Regions", "Cycles/sec", "Flits")
	for _, sz := range sizes {
		bm, err := BuildBigMesh(sz.w, sz.h, 8)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		bm.Run(cycles)
		cps := float64(cycles) / time.Since(start).Seconds()
		t.AddRow(fmt.Sprintf("%dx%d", sz.w, sz.h), bm.Platform.Mesh.NumNodes(),
			bm.Platform.Regions.Num(), fmt.Sprintf("%.0f", cps), bm.Flits())
		res.Metrics[fmt.Sprintf("cycles_per_sec_%dx%d", sz.w, sz.h)] = cps
	}
	res.Text = t.Render()
	return res, nil
}
