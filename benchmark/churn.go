package main

import (
	"errors"
	"fmt"
	"time"

	"daelite"
	"daelite/internal/alloc"
	"daelite/internal/core"
)

// Frozen sizes of mesh8_churn.
const (
	churnSide      = 8
	churnBudget    = 200_000 // cycles AwaitOpen/CompleteConfig may take
	churnBgRate    = 0.1     // CBR words/cycle on a 1-of-8-slot reservation
	churnWarmOpens = 48      // opens run during set-up: fills the live set
)

// churnHole is the NI no generated stream names (see padNode).
var churnHole = xy{churnSide - 1, churnSide - 1}

// noCapacity reports whether an Open error is the correct answer "this
// does not fit right now" (slots or NI channels) as opposed to a fault.
func noCapacity(err error) bool {
	var nc alloc.ErrNoCapacity
	return errors.As(err, &nc) || errors.Is(err, core.ErrNoChannel)
}

// churnInst is the 8x8 platform with its verified background traffic
// and the live set of the churn stream.
type churnInst struct {
	p    *daelite.Platform
	bg   *torusInst // background endpoints reuse the torus accounting
	ops  []churnOp
	pos  int // next op of the stream
	live map[int]*daelite.Connection

	baseSlots int
	baseFP    uint64

	// Simulated statistics of the churn ops.
	opens, accepted uint64
	setupCycles     uint64
	setupWords      uint64
	teardownCycles  uint64
	teardowns       uint64
	faults          uint64
	firstFault      string
}

func (in *churnInst) spec(op churnOp) daelite.ConnectionSpec {
	m := in.p.Mesh
	s := daelite.ConnectionSpec{Src: m.NI(op.Src.X, op.Src.Y, 0), SlotsFwd: op.Slots}
	if len(op.Dsts) == 1 {
		s.Dst = m.NI(op.Dsts[0].X, op.Dsts[0].Y, 0)
		return s
	}
	for _, d := range op.Dsts {
		s.Dsts = append(s.Dsts, m.NI(d.X, d.Y, 0))
	}
	return s
}

func (in *churnInst) fault(format string, args ...any) {
	in.faults++
	if in.firstFault == "" {
		in.firstFault = fmt.Sprintf(format, args...)
	}
}

// step executes the next op of the stream through the four facade
// calls, with a span around each, and returns false when the op was the
// close of a connection that was never admitted (nothing to do).
func (in *churnInst) step(tr *tracer, n uint64) bool {
	op := in.ops[in.pos]
	in.pos++
	p := in.p
	if op.Open {
		root := tr.begin("op.open", -1, n)
		id := tr.begin("core.Open", root, n)
		c, err := p.Open(in.spec(op))
		tr.end(id)
		in.opens++
		if err != nil {
			if !noCapacity(err) {
				in.fault("open %d: %v", op.ID, err)
			}
			tr.end(root)
			return true
		}
		id = tr.begin("core.AwaitOpen", root, n)
		err = p.AwaitOpen(c, churnBudget)
		tr.end(id)
		tr.end(root)
		if err != nil {
			in.fault("await open %d: %v", op.ID, err)
			return true
		}
		in.accepted++
		in.setupCycles += c.SetupCycles()
		in.setupWords += uint64(c.Setup.Words)
		in.live[op.ID] = c
		return true
	}
	c := in.live[op.ID]
	if c == nil {
		return false
	}
	delete(in.live, op.ID)
	root := tr.begin("op.close", -1, n)
	c0 := p.Cycle()
	id := tr.begin("core.Close", root, n)
	err := p.Close(c)
	tr.end(id)
	if err != nil {
		in.fault("close %d: %v", op.ID, err)
		tr.end(root)
		return true
	}
	id = tr.begin("core.CompleteConfig", root, n)
	_, err = p.CompleteConfig(churnBudget)
	tr.end(id)
	tr.end(root)
	if err != nil {
		in.fault("settle close %d: %v", op.ID, err)
	}
	in.teardowns++
	in.teardownCycles += p.Cycle() - c0
	return true
}

// buildChurn builds the mesh, opens eight verified CBR background
// connections (one per row, clear of the host NI and of padNode),
// and fills the live set from the head of the op stream.
func buildChurn(cfg runConfig, ops []churnOp) (*churnInst, error) {
	p, err := daelite.NewMeshPlatform(daelite.MeshSpec{Width: churnSide, Height: churnSide, NIsPerRouter: 1}, daelite.DefaultParams(), 0, 0)
	if err != nil {
		return nil, err
	}
	bgSpec := &torusSpec{name: "mesh8_churn background", rate: churnBgRate}
	bg := &torusInst{spec: bgSpec, seed: cfg.Seed, p: p, latHist: make([]uint64, 4096)}
	for y := 0; y < churnSide; y++ {
		c, err := p.Open(daelite.ConnectionSpec{Src: p.Mesh.NI(1, y, 0), Dst: p.Mesh.NI(churnSide-2, y, 0), SlotsFwd: 1})
		if err != nil {
			return nil, fmt.Errorf("mesh8_churn: background row %d: %w", y, err)
		}
		if err := p.AwaitOpen(c, churnBudget); err != nil {
			return nil, err
		}
		bg.conns = append(bg.conns, c)
	}
	bg.attachEndpoints()
	in := &churnInst{p: p, bg: bg, ops: ops, live: map[int]*daelite.Connection{},
		baseSlots: p.Alloc.TotalSlotsUsed(), baseFP: p.Alloc.Fingerprint()}
	for in.opens < churnWarmOpens {
		in.step(nil, 0)
	}
	// Warm-up opens are not part of the reported statistics.
	in.opens, in.accepted, in.setupCycles, in.setupWords, in.teardowns, in.teardownCycles = 0, 0, 0, 0, 0, 0
	return in, nil
}

// runChurn is the measured (or traced) run of mesh8_churn.
func runChurn(cfg runConfig, tr *tracer) (*measured, error) {
	opensPerRep := cfg.pick(200, 24)
	m := &measured{OpName: "open (Open+AwaitOpen) or close (Close+CompleteConfig)"}
	// The whole op stream exists before any timer starts.
	ops := churnStream(cfg.Seed, churnSide, churnSide, churnWarmOpens+(maxReps+1)*opensPerRep, churnHole)
	in, err := timeSetups(m, cfg.setups(5), func() (*churnInst, error) { return buildChurn(cfg, ops) }, func(*churnInst) {})
	if err != nil {
		return nil, err
	}
	p := in.p
	m.Counts = in.bg.counts()

	var n uint64
	repLoop(cfg, tr, m, func(rep int) (uint64, uint64) {
		c0 := p.Cycle()
		var ops uint64
		for target := in.opens + uint64(opensPerRep); in.opens < target || !in.ops[in.pos].Open; {
			t0 := time.Now()
			if in.step(tr, n) {
				m.OpLat = append(m.OpLat, time.Since(t0))
				ops++
				n++
			}
		}
		return p.Cycle() - c0, ops
	}, func() {
		m.Sim = in.bg.simStats()
		m.Sim.OpensAttempted, m.Sim.OpensAccepted = in.opens, in.accepted
		m.Sim.SetupCyclesMean = float64(in.setupCycles) / float64(max(in.accepted, 1))
		m.Sim.StreamHash = fmt.Sprintf("%016x", hashChurn(in.ops[:in.pos]))
	})

	// Close whatever is still live; the allocator must be back where
	// set-up left it.
	m.Attempted = n
	for id, c := range in.live {
		if err := p.Close(c); err != nil {
			in.fault("final close %d: %v", id, err)
		}
		m.Attempted++
	}
	if _, err := p.CompleteConfig(churnBudget); err != nil {
		in.fault("final settle: %v", err)
	}
	m.fail(in.faults, "%d connection ops failed, first: %s", in.faults, in.firstFault)
	if got := p.Alloc.TotalSlotsUsed(); got != in.baseSlots {
		m.fail(1, "allocator holds %d slots after all closes, %d after set-up", got, in.baseSlots)
	}
	if got := p.Alloc.Fingerprint(); got != in.baseFP {
		m.fail(1, "allocator fingerprint %016x after all closes, %016x after set-up", got, in.baseFP)
	}
	m.Sim.AllocFP = fmt.Sprintf("%016x", p.Alloc.Fingerprint())
	in.bg.drainAndCheck(m)
	return m, nil
}
