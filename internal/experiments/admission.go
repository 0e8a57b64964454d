package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"daelite/internal/alloc"
	"daelite/internal/report"
	"daelite/internal/sim"
	"daelite/internal/topology"
)

// E17 — admission throughput under churn.
//
// The paper's fast connection set-up claim rests on the admission engine:
// how many contention-free set-up decisions per second the allocator
// sustains while connections come and go. This experiment drives the
// batch admission engine over torus meshes with a seeded churn workload
// (short unicasts, multipath, multicast trees) and sweeps the what-if
// evaluation worker count. Batch admission is an
// optimistic-concurrency design proven bit-identical across worker
// counts: every sweep entry must reproduce the sequential fingerprint.
//
// Set-ups/sec numbers are wall-clock and machine-dependent, so E17 is
// excluded from the golden experiment output and surfaces through
// daelite-bench -json (and -experiment E17) instead.

// nearPair draws a source NI and a destination at most four hops away
// in each dimension: the NoC locality both churn workloads share.
func nearPair(m *topology.Mesh, rng *sim.RNG) (src, dst topology.NodeID) {
	w, h := m.Spec.Width, m.Spec.Height
	sx, sy := rng.Intn(w), rng.Intn(h)
	dx := (sx + 1 + rng.Intn(4)) % w
	dy := (sy + rng.Intn(4)) % h
	return m.NI(sx, sy, 0), m.NI(dx, dy, 0)
}

// admissionBatch builds one seeded batch of mixed admission requests with
// NoC-local destinations on a torus mesh.
func admissionBatch(m *topology.Mesh, rng *sim.RNG, n int) []alloc.BatchItem {
	items := make([]alloc.BatchItem, n)
	for i := range items {
		switch op := rng.Intn(10); {
		case op < 6: // plain bidirectional unicast (the core.Open shape)
			src, dst := nearPair(m, rng)
			slots := 1 + rng.Intn(2)
			items[i] = alloc.BatchItem{Reqs: []alloc.Request{
				{Src: src, Dst: dst, Slots: slots},
				{Src: dst, Dst: src, Slots: 1},
			}}
		case op < 8: // multipath forward leg
			src, dst := nearPair(m, rng)
			items[i] = alloc.BatchItem{Reqs: []alloc.Request{
				{Src: src, Dst: dst, Slots: 2, Opts: alloc.Options{Multipath: true, MaxDetour: 2}},
				{Src: dst, Dst: src, Slots: 1},
			}}
		default: // multicast tree
			src, d1 := nearPair(m, rng)
			_, d2 := nearPair(m, rng)
			if d1 == src || d2 == src || d1 == d2 {
				src2, dst2 := nearPair(m, rng)
				items[i] = alloc.BatchItem{Reqs: []alloc.Request{
					{Src: src2, Dst: dst2, Slots: 1},
					{Src: dst2, Dst: src2, Slots: 1},
				}}
				continue
			}
			items[i] = alloc.BatchItem{Reqs: []alloc.Request{
				{Src: src, Dsts: []topology.NodeID{d1, d2}, Slots: 1},
			}}
		}
	}
	return items
}

func fpUnicast(h uint64, u *alloc.Unicast) uint64 {
	h = fnvMix(h, uint64(u.Src))
	h = fnvMix(h, uint64(u.Dst))
	for _, pa := range u.Paths {
		for _, l := range pa.Path {
			h = fnvMix(h, uint64(l))
		}
		h = fnvMix(h, pa.InjectSlots.Bits)
	}
	return h
}

func fpMulticast(h uint64, mc *alloc.Multicast) uint64 {
	h = fnvMix(h, uint64(mc.Src))
	h = fnvMix(h, mc.InjectSlots.Bits)
	for _, e := range mc.Edges {
		h = fnvMix(h, uint64(e.Link))
		h = fnvMix(h, uint64(e.Depth))
	}
	for _, d := range mc.Dsts {
		h = fnvMix(h, uint64(d))
		h = fnvMix(h, uint64(mc.DestDepth[d]))
	}
	return h
}

// admissionRun drives rounds seeded batches through a fresh allocator on a
// width x height torus, releasing older allocations between rounds to keep
// the network in churn steady state. Only the Batch calls are timed. The
// returned fingerprint folds every admission outcome (paths, slots,
// errors, re-evaluations), so two runs are bit-identical iff it matches.
func admissionRun(width, height, wheel, rounds, batchSize, workers int) (setups, committed int, fp uint64, elapsed time.Duration, err error) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: width, Height: height, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	a := alloc.New(m.Graph, wheel)
	rng := sim.NewRNG(17)
	var liveU []*alloc.Unicast
	var liveM []*alloc.Multicast
	for r := 0; r < rounds; r++ {
		items := admissionBatch(m, rng, batchSize)
		start := time.Now()
		results, _ := a.Batch(items, workers)
		elapsed += time.Since(start)
		for _, res := range results {
			setups++
			if res.Err != nil {
				fp = fnvMix(fp, 0xE0)
				continue
			}
			committed++
			if res.Reevaluated {
				fp = fnvMix(fp, 0x5E)
			}
			for _, u := range res.Alloc.Unicasts {
				fp = fpUnicast(fp, u)
				liveU = append(liveU, u)
			}
			for _, mc := range res.Alloc.Multicasts {
				fp = fpMulticast(fp, mc)
				liveM = append(liveM, mc)
			}
		}
		// Churn: retire the oldest allocations beyond the steady-state
		// bound. Results are bit-identical across worker counts, so the
		// live set (and therefore the next round's capacity) is too.
		for len(liveU) > 256 {
			a.ReleaseUnicast(liveU[0])
			liveU = liveU[1:]
		}
		for len(liveM) > 64 {
			a.ReleaseMulticast(liveM[0])
			liveM = liveM[1:]
		}
	}
	return setups, committed, fp, elapsed, nil
}

// AdmissionThroughput is experiment E17: admission set-ups/sec versus mesh
// size and batch worker count under churn, with the cross-worker
// determinism contract re-checked on every entry.
func AdmissionThroughput() (*Result, error) {
	res := newResult("E17", "batch admission throughput under churn")
	ncpu := runtime.GOMAXPROCS(0)
	workerSweep := []int{1, 2, ncpu}
	if ncpu <= 2 {
		workerSweep = []int{1, 2}
	}
	type size struct{ w, h int }
	sizes := []size{{8, 8}, {16, 16}}
	const (
		wheel     = 32
		rounds    = 25
		batchSize = 32
	)

	t := report.NewTable("E17 — admission set-ups/sec vs mesh size vs workers (torus, wheel 32, churn)",
		"Mesh", "Workers", "Batch", "Set-ups/sec", "Admitted", "Deterministic")
	var sb strings.Builder
	for _, sz := range sizes {
		var firstFP uint64
		for i, w := range workerSweep {
			setups, committed, fp, elapsed, err := admissionRun(sz.w, sz.h, wheel, rounds, batchSize, w)
			if err != nil {
				return nil, err
			}
			sps := float64(setups) / elapsed.Seconds()
			det := "-"
			if i == 0 {
				firstFP = fp
			} else if fp == firstFP {
				det = "yes"
			} else {
				return nil, fmt.Errorf("experiments: E17 %dx%d workers=%d fingerprint %x != sequential %x",
					sz.w, sz.h, w, fp, firstFP)
			}
			t.AddRow(fmt.Sprintf("%dx%d", sz.w, sz.h), w, batchSize, fmt.Sprintf("%.0f", sps),
				fmt.Sprintf("%d/%d", committed, setups), det)
			res.Metrics[fmt.Sprintf("setups_per_sec_%dx%d_w%d", sz.w, sz.h, w)] = sps
		}
	}
	sb.WriteString(t.Render())
	sb.WriteString(fmt.Sprintf("\nGOMAXPROCS %d; every worker count reproduced the sequential admission fingerprint bit-identically.\n", ncpu))
	res.Text = sb.String()
	return res, nil
}

// AllocChurnOp returns the sequential admission-churn step op on a 16x16
// torus, the body of the AllocChurn entry of Micro. One op is one
// admission decision of the steady-state churn workload: mostly short
// unicasts (NoC locality), some multipath and multicast, a use-case
// transaction now and then, with releases keeping occupancy bounded.
func AllocChurnOp() (func(), error) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 16, Height: 16, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		return nil, err
	}
	a := alloc.New(m.Graph, 32)
	rng := sim.NewRNG(7)
	var liveU []*alloc.Unicast
	var liveM []*alloc.Multicast
	release := func() {
		if len(liveU) > 0 {
			i := rng.Intn(len(liveU))
			a.ReleaseUnicast(liveU[i])
			liveU[i] = liveU[len(liveU)-1]
			liveU = liveU[:len(liveU)-1]
		}
		if len(liveM) > 0 {
			i := rng.Intn(len(liveM))
			a.ReleaseMulticast(liveM[i])
			liveM[i] = liveM[len(liveM)-1]
			liveM = liveM[:len(liveM)-1]
		}
	}
	return func() {
		if len(liveU)+len(liveM) > 384 {
			release()
		}
		switch op := rng.Intn(10); {
		case op < 6:
			src, dst := nearPair(m, rng)
			if u, err := a.Unicast(src, dst, 1+rng.Intn(2), alloc.Options{}); err == nil {
				liveU = append(liveU, u)
			} else {
				release()
			}
		case op < 8:
			src, dst := nearPair(m, rng)
			if u, err := a.Unicast(src, dst, 2, alloc.Options{Multipath: true, MaxDetour: 2}); err == nil {
				liveU = append(liveU, u)
			} else {
				release()
			}
		case op < 9:
			src, d1 := nearPair(m, rng)
			_, d2 := nearPair(m, rng)
			if d1 == src || d2 == src || d1 == d2 {
				return
			}
			if mc, err := a.Multicast(src, []topology.NodeID{d1, d2}, 1); err == nil {
				liveM = append(liveM, mc)
			} else {
				release()
			}
		default:
			s1, d1 := nearPair(m, rng)
			s2, d2 := nearPair(m, rng)
			uc, err := a.AllocateUseCase([]alloc.Request{
				{Src: s1, Dst: d1, Slots: 1},
				{Src: s2, Dst: d2, Slots: 1},
			})
			if err == nil {
				liveU = append(liveU, uc.Unicasts...)
			} else {
				release()
			}
		}
	}, nil
}

// AllocBatchOp returns an op admitting one 32-item churn batch on a 16x16
// torus with the given worker count (0 = GOMAXPROCS), the body of the
// AllocBatch and AllocBatchPar entries of Micro.
func AllocBatchOp(workers int) (func(), error) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 16, Height: 16, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		return nil, err
	}
	a := alloc.New(m.Graph, 32)
	rng := sim.NewRNG(17)
	var live []*alloc.UseCaseAlloc
	return func() {
		items := admissionBatch(m, rng, 32)
		results, _ := a.Batch(items, workers)
		for _, r := range results {
			if r.Err == nil {
				live = append(live, r.Alloc)
			}
		}
		for len(live) > 256 {
			a.ReleaseUseCase(live[0])
			live = live[1:]
		}
	}, nil
}
