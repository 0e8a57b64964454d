package conformance

import (
	"reflect"
	"slices"
	"testing"

	"daelite/internal/core"
	"daelite/internal/sim"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

// fuzzInput hands out the fuzzer's bytes as small choices; an exhausted
// input answers 0.
type fuzzInput []byte

func (b *fuzzInput) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// FuzzCheckerExpectation drives random opens, batches, closes, grafts
// and prunes on small meshes, one router link optionally pipelined,
// with the checker attached. After every settled operation the
// checker's cached schedule must equal a fresh fold of the live
// connections — every change to them moves the allocator's epoch — and
// a forced structural pass must add no violation.
func FuzzCheckerExpectation(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		data := make([]byte, 160)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		m, err := topology.NewMesh(topology.MeshSpec{Width: 2 + in.next(2), Height: 2 + in.next(2), NIsPerRouter: 1 + in.next(2)})
		if err != nil {
			t.Fatal(err)
		}
		if in.next(2) == 1 {
			for _, l := range m.Links() {
				if m.Node(l.From).Kind == topology.Router && m.Node(l.To).Kind == topology.Router {
					m.Graph.SetPipeline(l.ID, 1+in.next(2))
					break
				}
			}
		}
		params := core.DefaultParams()
		params.Wheel = []int{8, 16}[in.next(2)]
		params.NumChannels = 2 + in.next(3)
		p, err := core.NewPlatform(m, params, m.NI(0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		ck := Attach(p, telemetry.NewRegistry(), Options{SampleEvery: 16})

		nodes := m.AllNIs
		ni := func() topology.NodeID { return nodes[in.next(len(nodes))] }
		other := func(n topology.NodeID) topology.NodeID {
			i := slices.Index(nodes, n)
			return nodes[(i+1+in.next(len(nodes)-1))%len(nodes)]
		}
		spec := func() core.ConnectionSpec {
			s := core.ConnectionSpec{Src: ni(), SlotsFwd: 1 + in.next(3)}
			if in.next(3) > 0 {
				s.Dst = other(s.Src)
				return s
			}
			for k := 1 + in.next(3); k > 0; k-- {
				if d := other(s.Src); !slices.Contains(s.Dsts, d) {
					s.Dsts = append(s.Dsts, d)
				}
			}
			return s
		}
		trees := func() []*core.Connection {
			var cs []*core.Connection
			for _, c := range ck.liveConns() {
				if c.Tree != nil {
					cs = append(cs, c)
				}
			}
			return cs
		}

		for step := 0; step < 24 && len(in) > 0; step++ {
			op := in.next(5)
			switch op {
			case 0:
				_, _ = p.Open(spec())
			case 1:
				specs := make([]core.ConnectionSpec, 1+in.next(6))
				for i := range specs {
					specs[i] = spec()
				}
				p.OpenBatch(specs)
			case 2:
				if cs := ck.liveConns(); len(cs) > 0 {
					_ = p.Close(cs[in.next(len(cs))])
				}
			case 3:
				if cs := trees(); len(cs) > 0 {
					_ = p.AddMulticastDestination(cs[in.next(len(cs))], ni())
				}
			case 4:
				if cs := trees(); len(cs) > 0 {
					c := cs[in.next(len(cs))]
					_ = p.RemoveMulticastDestination(c, c.Spec.Dsts[in.next(len(c.Spec.Dsts))])
				}
			}
			if _, err := p.CompleteConfig(1_000_000); err != nil {
				t.Fatal(err)
			}
			for _, c := range ck.liveConns() {
				if err := p.AwaitOpen(c, 1_000_000); err != nil {
					t.Fatal(err)
				}
			}
			p.Run(uint64(in.next(64)))

			before := ck.Violations()
			ck.CheckNow()
			if fresh := ck.m.Schedule(ck.liveConns()); !reflect.DeepEqual(ck.schedule(), fresh) {
				t.Fatalf("step %d: op %d left the cached schedule (epoch %d) unlike a fresh fold", step, op, ck.schedEpoch)
			}
			if n := ck.Violations() - before; n != 0 {
				t.Fatalf("step %d: op %d: structural pass found %d violations: %v", step, op, n, ck.Recorded())
			}
		}
	})
}
