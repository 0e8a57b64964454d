package daelite

// Parent-pinned behaviour of the simulation kernel. The determinism
// tests elsewhere compare two runs of the same code, so a kernel that is
// consistently wrong passes them; this test compares against constants
// recorded at the commit before the activity-driven kernel (sleeping
// components, write-list commit) landed. Short versions of the three
// benchmark torus shapes and a chaos soak with link and slot-table
// faults must reproduce, exactly: the delivered words, a per-connection
// fold of (word, delivery cycle, SubmitCycle), three views of every NI
// wire (payload flits, non-zero credit chunks, and a count of zero-credit
// carriers), the skipped-cycle count and the allocator fingerprint.

import (
	"fmt"
	"testing"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// pinResult is everything a pinned run must reproduce.
type pinResult struct {
	delivered uint64
	conns     uint64 // fold of the per-connection (word, cycle, submit) folds
	payload   uint64 // fold of (wire, cycle, data, tag) of every Valid flit on an NI wire
	credits   uint64 // fold of (wire, cycle, credit) of every flit with Credit != 0
	carriers  uint64 // count of CreditValid flits with Credit == 0
	skipped   uint64
	alloc     uint64
	cycles    uint64
}

func (r pinResult) String() string {
	return fmt.Sprintf("{delivered: %d, conns: %#016x, payload: %#016x, credits: %#016x, carriers: %d, skipped: %d, alloc: %#016x, cycles: %d}",
		r.delivered, r.conns, r.payload, r.credits, r.carriers, r.skipped, r.alloc, r.cycles)
}

// pinRun carries a platform and the folds its probes accumulate.
type pinRun struct {
	p        *core.Platform
	hash     []uint64
	payload  sim.Fingerprint
	credits  sim.Fingerprint
	carriers uint64
	sinks    []*traffic.Sink
}

// newPinRun wraps p and installs the wire probe: after every stepped
// cycle it looks at each NI's output wire and at the router wire feeding
// each NI, and folds payload and credit bits separately, so a change to
// the zero-credit carriers alone shows up in carriers only.
func newPinRun(p *core.Platform) *pinRun {
	r := &pinRun{p: p}
	var wires []*sim.Reg[phit.Flit]
	for _, id := range p.Mesh.AllNIs {
		wires = append(wires, p.NI(id).OutputWire())
	}
	for _, l := range p.Mesh.Links() {
		if rt := p.Router(l.From); rt != nil && p.NI(l.To) != nil {
			wires = append(wires, rt.OutputWire(l.FromPort))
		}
	}
	p.Sim.AddProbe(func(cycle uint64) {
		for i, w := range wires {
			f := w.Get()
			if f.Valid {
				r.payload = r.payload.Mix(uint64(i)).Mix(cycle).Mix(uint64(f.Data)).
					Mix(uint64(f.Tag.Channel)).Mix(f.Tag.Seq).Mix(f.Tag.SubmitCycle).Mix(f.Tag.InjectCycle)
			}
			if f.Credit != 0 {
				r.credits = r.credits.Mix(uint64(i)).Mix(cycle).Mix(uint64(f.Credit))
			} else if f.CreditValid {
				r.carriers++
			}
		}
	})
	return r
}

// sink attaches a folding sink to connection c's destination.
func (r *pinRun) sink(name string, c *core.Connection) {
	i := len(r.hash)
	r.hash = append(r.hash, 0)
	k := traffic.NewSink(r.p.Sim, name, r.p.NI(c.Spec.Dst), c.DstChannel)
	k.SetVerify(func(d ni.Delivery) error {
		r.hash[i] = fnvMix(fnvMix(fnvMix(r.hash[i], uint64(d.Word)), d.Cycle), d.Tag.SubmitCycle)
		return nil
	})
	r.sinks = append(r.sinks, k)
}

func (r *pinRun) result() pinResult {
	res := pinResult{payload: r.payload.Sum(), credits: r.credits.Sum(), carriers: r.carriers, skipped: r.p.Sim.SkippedCycles(), alloc: r.p.Alloc.Fingerprint(), cycles: r.p.Cycle()}
	for i, h := range r.hash {
		res.conns = fnvMix(res.conns, h)
		res.delivered += r.sinks[i].Received()
	}
	return res
}

// pinTorus runs a short version of one benchmark torus shape on a 16x16
// torus: the benchmark's connection patterns, wheel sizes and loads,
// with fewer cycles.
func pinTorus(t *testing.T, shape string) (pinResult, *core.Platform) {
	t.Helper()
	const side = 16
	params := core.DefaultParams()
	var pairs [][4]int
	slotsFwd, rate := 1, 0.05
	switch shape {
	case "dense", "sparse":
		params.Wheel = 16
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				if shape == "dense" || (x == 0 && y%4 == 0) {
					pairs = append(pairs, [4]int{x, y, (x + 5) % side, (y + 3) % side})
				}
			}
		}
	case "duty":
		params.Wheel, params.FastForward = 8, true
		slotsFwd, rate = 2, 0
		for y := 0; y < side; y++ {
			pairs = append(pairs, [4]int{0, y, side / 2, y})
		}
	}
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: side, Height: side, NIsPerRouter: 1, Wrap: true}, params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newPinRun(p)
	var conns []*core.Connection
	for g := 0; g < len(pairs); g += side {
		first := len(conns)
		for _, pr := range pairs[g:min(g+side, len(pairs))] {
			c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(pr[0], pr[1], 0), Dst: p.Mesh.NI(pr[2], pr[3], 0), SlotsFwd: slotsFwd})
			if err != nil {
				t.Fatalf("%s: open %v: %v", shape, pr, err)
			}
			conns = append(conns, c)
		}
		for _, c := range conns[first:] {
			if err := p.AwaitOpen(c, 1_000_000); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, c := range conns {
		if rate > 0 {
			traffic.NewSource(p.Sim, fmt.Sprintf("pin-src-%d", i), p.NI(c.Spec.Src), c.SrcChannel,
				traffic.SourceConfig{Pattern: traffic.CBR, Rate: rate, Seed: 1 + uint64(i)})
		}
		r.sink(fmt.Sprintf("pin-sink-%d", i), c)
	}
	switch shape {
	case "dense":
		p.Run(600)
	case "sparse":
		p.Run(4000)
	case "duty":
		// Two rounds: a burst per row offered between steps, then a long
		// settled stretch that fast-forward skips.
		next := make([]uint64, len(conns))
		for round := 0; round < 2; round++ {
			start := p.Cycle()
			left := make([]int, len(conns))
			for i := range left {
				left[i] = 48
			}
			for pending := len(conns); pending > 0; {
				pending = 0
				for i, c := range conns {
					for left[i] > 0 && p.NI(c.Spec.Src).Send(c.SrcChannel, phit.Word(uint64(i)<<20|next[i])) {
						next[i]++
						left[i]--
					}
					if left[i] > 0 {
						pending++
					}
				}
				if pending > 0 {
					p.Run(16)
				}
			}
			p.Run(4000 - (p.Cycle() - start))
		}
	}
	return r.result(), p
}

// pinChaos is a 4x4 soak under CBR traffic with two link failures, two
// slot-table upsets, stall detection and online repair.
func pinChaos(t *testing.T) (pinResult, fault.Counters, int) {
	t.Helper()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newPinRun(p)
	rng := sim.NewRNG(7)
	var conns []*core.Connection
	for opened, tries := 0, 0; opened < 6 && tries < 100; tries++ {
		s := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		d := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		if s == d {
			continue
		}
		c, err := p.Open(core.ConnectionSpec{Src: s, Dst: d, SlotsFwd: 1 + rng.Intn(2)})
		if err != nil {
			continue
		}
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			t.Fatal(err)
		}
		traffic.NewSource(p.Sim, fmt.Sprintf("src%d", c.ID), p.NI(s), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.04 + 0.02*float64(rng.Intn(3)), Seed: rng.Uint64()})
		r.sink(fmt.Sprintf("sink%d", c.ID), c)
		conns = append(conns, c)
		opened++
	}
	// The faults hit live paths: the link leaving the first router of
	// connection i's forward path dies (i = 0, 1), and the entry that
	// router reserved for connection i loses its valid bit (i = 2, 3).
	const cycles = 10_000
	start := p.Cycle()
	var faults []fault.Fault
	for i, c := range conns[:4] {
		path := c.Fwd.Paths[0].Path
		l := p.Mesh.Link(path[1])
		at := start + uint64((i+1)*cycles/5)
		if i < 2 {
			faults = append(faults, fault.Fault{Kind: fault.LinkDown, Link: l.ID, From: at})
			continue
		}
		slot := p.Router(l.From).Table().OccupiedMask(l.FromPort).Slots()[0]
		faults = append(faults, fault.Fault{Kind: fault.SlotTableFlip, Router: l.From, Out: l.FromPort, Slot: slot, From: at})
	}
	inj, err := fault.Attach(p, rng.Uint64(), faults...)
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewHealthMonitor(p, 256)
	repairs := 0
	for end := start + cycles; p.Cycle() < end; {
		p.Run(min(512, end-p.Cycle()))
		if len(mon.Stalled()) > 0 {
			done, _ := p.RepairStalled(mon, 1_000_000)
			repairs += len(done)
		}
	}
	return r.result(), inj.Counters(), repairs
}

// The constants below were recorded at the parent of the activity-driven
// kernel; a change to any of them is a behaviour change of the kernel or
// a model, not noise. Since NIs stopped driving zero-credit slots, only
// carriers (the zero chunks of non-zero credit slots), duty's skipped
// cycles and the chaos FlitsKilled differ from that parent.
var pinned = map[string]pinResult{
	"sparse": {delivered: 792, conns: 0x3ddee85888c4ea85, payload: 0xee7950dd6f1b2cd5, credits: 0x4c167c9bf01a265d, carriers: 988, skipped: 0, alloc: 0x48098c761fab70e8, cycles: 4352},
	"dense":  {delivered: 7088, conns: 0xbf241624211c38c5, payload: 0xc42e2c1b1bdf0d45, credits: 0x53302c21af1cb4b5, carriers: 8672, skipped: 0, alloc: 0xcd1ce4dd5ec2a3f7, cycles: 13432},
	"duty":   {delivered: 1536, conns: 0xc02572a923b6c8ea, payload: 0x5004f75999cd9a45, credits: 0x65bcae9553cde6a5, carriers: 832, skipped: 7898, alloc: 0xfb97e8cfe22ca1e8, cycles: 9184},
	"chaos":  {delivered: 4006, conns: 0xc94a84f481181a64, payload: 0x5508386100cdda1c, credits: 0x03941671fb348828, carriers: 6974, skipped: 0, alloc: 0x6c3fa2d2119fc4e1, cycles: 10424},
}

// pinnedChaosFaults and pinnedChaosRepairs are the chaos soak's fault
// activations and completed repairs.
var (
	pinnedChaosFaults  = fault.Counters{FlitsKilled: 64, TableFlips: 2}
	pinnedChaosRepairs = 3
)

func TestKernelPinnedToParent(t *testing.T) {
	for _, shape := range []string{"sparse", "dense", "duty"} {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			got, p := pinTorus(t, shape)
			if got != pinned[shape] {
				t.Errorf("%s: got %v, want %v", shape, got, pinned[shape])
			}
			// The activity-driven kernel's claim, as a count: on the
			// sparse torus, fewer than 10 % of the Add'ed components are
			// evaluated in a mean cycle, set-up included.
			evaluated, offered := p.Sim.Evaluations()
			t.Logf("%s: evaluated %d of %d component-cycles", shape, evaluated, offered)
			if shape == "sparse" && 10*evaluated >= offered {
				t.Errorf("sparse: evaluated %d of %d component-cycles, want < 10 %%", evaluated, offered)
			}
		})
	}
	t.Run("chaos", func(t *testing.T) {
		got, c, repairs := pinChaos(t)
		if got != pinned["chaos"] || c != pinnedChaosFaults || repairs != pinnedChaosRepairs {
			t.Errorf("chaos: got %v %+v %d repairs, want %v %+v %d repairs",
				got, c, repairs, pinned["chaos"], pinnedChaosFaults, pinnedChaosRepairs)
		}
	})
}
