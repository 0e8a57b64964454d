package experiments

import (
	"daelite/internal/alloc"
	"daelite/internal/sim"
	"daelite/internal/topology"
)

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
