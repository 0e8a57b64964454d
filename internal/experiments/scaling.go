package experiments

import (
	"fmt"

	"daelite/internal/core"
	"daelite/internal/ni"
	"daelite/internal/phit"
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

	sinks  []*traffic.Sink
	hashes []sim.Fingerprint
}

// BuildBigMesh assembles a Width x Height torus platform with the given
// TDM wheel and opens one guaranteed-bandwidth connection per row through
// the configuration trees.
func BuildBigMesh(width, height, wheel int) (*BigMesh, error) {
	return BuildBigMeshFF(width, height, wheel, 0, false)
}

// BuildBigMeshFF is BuildBigMesh with bounded sources (limit words per
// row, 0 = unlimited) and optional fast-forwarding. Bounded sources
// drain, so the platform eventually settles and a fast-forwarding
// kernel can start skipping cycles.
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
	var conns []*core.Connection
	for y := 0; y < height; y++ {
		c, err := p.Open(core.ConnectionSpec{
			Src: p.Mesh.NI(0, y, 0), Dst: p.Mesh.NI(width/2, y, 0), SlotsFwd: 2,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: big mesh row %d: %w", y, err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			return nil, err
		}
	}

	// CBR traffic on every row, below the 2-slot reservation so flow
	// control never throttles the fingerprint stream; the sinks fold
	// every delivered word and arrival cycle into per-row hashes.
	bm.hashes = make([]sim.Fingerprint, len(conns))
	for i, c := range conns {
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
			bm.hashes[idx] = bm.hashes[idx].Mix(uint64(d.Word)).Mix(d.Cycle)
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
	var h sim.Fingerprint
	for i, k := range bm.sinks {
		h = h.Mix(bm.hashes[i].Sum()).Mix(k.Received())
	}
	return h.Mix(bm.Sim.Cycle()).Sum()
}
