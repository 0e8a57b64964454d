package alloc

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"daelite/internal/slots"
	"daelite/internal/topology"
)

// FuzzVerify drives the allocator with a fuzzer-chosen op stream and
// checks two properties of Verify: everything the allocator actually
// admitted verifies clean, and corrupted allocations (double bookings,
// foreign wheel sizes, bogus link IDs) are reported as errors — never
// panics.
func FuzzVerify(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x45, 0x67})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00})
	f.Add([]byte{0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe})

	m, err := topology.NewMesh(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1})
	if err != nil {
		f.Fatal(err)
	}
	const wheel = 16

	f.Fuzz(func(t *testing.T, data []byte) {
		a := New(m.Graph, wheel)
		var liveU []*Unicast
		var liveM []*Multicast
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		ni := func(b byte) topology.NodeID {
			return m.AllNIs[int(b)%len(m.AllNIs)]
		}
		for i+3 <= len(data) && len(liveU)+len(liveM) < 64 {
			op, sb, db := next(), next(), next()
			src, dst := ni(sb), ni(db)
			if src == dst {
				continue
			}
			switch op % 4 {
			case 0, 1:
				if u, err := a.Unicast(src, dst, 1+int(op)%3, Options{}); err == nil {
					liveU = append(liveU, u)
				}
			case 2:
				d2 := ni(sb + db + 1)
				if d2 == src || d2 == dst {
					continue
				}
				if mc, err := a.Multicast(src, []topology.NodeID{dst, d2}, 1); err == nil {
					liveM = append(liveM, mc)
				}
			default:
				if len(liveU) > 0 {
					j := int(sb) % len(liveU)
					a.ReleaseUnicast(liveU[j])
					liveU[j] = liveU[len(liveU)-1]
					liveU = liveU[:len(liveU)-1]
				}
			}
		}

		// Property 1: the allocator's own output always verifies clean.
		if err := Verify(m.Graph, wheel, liveU, liveM); err != nil {
			t.Fatalf("admitted allocations fail verification: %v", err)
		}

		if len(liveU) == 0 {
			return
		}
		u := liveU[0]

		// Property 2: a double-committed allocation is a slot collision.
		if err := Verify(m.Graph, wheel, append([]*Unicast{u}, liveU...), liveM); err == nil {
			t.Fatal("double-committed unicast not flagged")
		}

		// Property 3: a wheel-size mismatch is an error, not a panic.
		bad := &Unicast{Src: u.Src, Dst: u.Dst, Paths: []PathAlloc{{
			Path:        u.Paths[0].Path,
			InjectSlots: slots.Mask{Bits: 1, Size: wheel / 2},
		}}}
		if err := Verify(m.Graph, wheel, []*Unicast{bad}, nil); err == nil {
			t.Fatal("wheel mismatch not flagged")
		}

		// Property 4: fuzzer-mutated slot masks must never panic Verify;
		// extra bits either collide (error) or land in free slots (clean).
		mut := &Unicast{Src: u.Src, Dst: u.Dst, Paths: append([]PathAlloc(nil), u.Paths...)}
		pa := mut.Paths[0]
		pa.InjectSlots = slots.Mask{
			Bits: pa.InjectSlots.Bits | 1<<(uint(next())%wheel),
			Size: wheel,
		}
		mut.Paths[0] = pa
		_ = Verify(m.Graph, wheel, append([]*Unicast{mut}, liveU[1:]...), liveM)
	})
}

// FuzzUnicastCandidates checks that Unicast, which enumerates and caches
// only the first MaxPaths candidates, admits exactly what refUnicast
// admits from an uncached 64-path enumeration sliced to MaxPaths: the
// same paths, the same inject slots and the same ErrNoCapacity.Got, op by
// op, with exclusions and releases interleaved and the two allocators'
// fingerprints equal at the end. Pairs are drawn on the 8x8 mesh and the
// 16x16 torus; the demand of 1..10 slots on a wheel of 8 sometimes
// cannot fit.
//
// data[0] picks the topology, then each op is four bytes: kind, source,
// destination, argument. The low two bits of kind select a single-path
// request, a multipath request, an ExcludeLink (the link ID is source
// and destination as one 16-bit number) or the release of a live
// unicast; bits 2-3 pick MaxDetour from candidateDetours, bit 4 asks a
// single-path request for Spread and bits 5-6 pick MaxPaths from
// candidateCaps, so entries cached under different caps meet.
func FuzzUnicastCandidates(f *testing.F) {
	mesh8, err := topology.NewMesh(topology.MeshSpec{Width: 8, Height: 8, NIsPerRouter: 1})
	if err != nil {
		f.Fatal(err)
	}
	torus16, err := topology.NewMesh(topology.MeshSpec{Width: 16, Height: 16, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		f.Fatal(err)
	}
	meshes := []*topology.Mesh{mesh8, torus16}
	const wheel = 8
	index := func(m *topology.Mesh, x, y int) byte {
		return byte(slices.Index(m.AllNIs, m.NI(x, y, 0)))
	}

	// TestExclusionAppliesBeforeCap: exclude the second link of the
	// first shortest path from NI (0,0) to NI (8,8) of the torus, then
	// ask for one slot on a shortest path.
	src, dst := torus16.NI(0, 0, 0), torus16.NI(8, 8, 0)
	first, _ := torus16.SimplePathsAvoidingDense(src, dst, torus16.Distance(src, dst), 1, nil)
	dead := first[0][1]
	f.Add([]byte{1, 2, byte(dead >> 8), byte(dead), 0, 0, index(torus16, 0, 0), index(torus16, 8, 8), 0})
	// TestDetourSearchIsBounded: two slots corner to corner on the 8x8
	// mesh, multipath, MaxDetour 8.
	f.Add([]byte{0, 1 | 3<<2, index(mesh8, 0, 0), index(mesh8, 7, 7), 1})
	// One pair under two caps: five slots from NI (6,3) to NI (0,0) of
	// the torus with MaxPaths 3, a multipath flow from NI (4,3) to NI
	// (1,0) that fills links of those three paths, then three more slots
	// for the first pair, which only a later path of the default eight
	// can carry. A cache entry keyed without its cap fails here.
	s, d := index(torus16, 6, 3), index(torus16, 0, 0)
	f.Add([]byte{1, 2 << 5, s, d, 4, 1, index(torus16, 4, 3), index(torus16, 1, 0), 2, 0, s, d, 2})
	f.Add([]byte{1, 0x11, 0x12, 0x34, 0x56, 0x05, 0x80, 0x40, 0x07, 0x03, 0x01, 0xc0, 0x09, 0x00, 0x12, 0x34, 0x05})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := meshes[int(data[0])%len(meshes)]
		a, ref := New(m.Graph, wheel), New(m.Graph, wheel)
		var live, liveRef []*Unicast
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			kind, sb, db, arg := ops[0], ops[1], ops[2], ops[3]
			switch kind & 3 {
			case 2:
				l := topology.LinkID((int(sb)<<8 | int(db)) % m.NumLinks())
				a.ExcludeLink(l)
				ref.ExcludeLink(l)
				continue
			case 3:
				if len(live) > 0 {
					j := int(sb) % len(live)
					a.ReleaseUnicast(live[j])
					ref.ReleaseUnicast(liveRef[j])
					live = slices.Delete(live, j, j+1)
					liveRef = slices.Delete(liveRef, j, j+1)
				}
				continue
			}
			src := m.AllNIs[int(sb)%len(m.AllNIs)]
			dst := m.AllNIs[int(db)%len(m.AllNIs)]
			if src == dst {
				continue
			}
			n := 1 + int(arg)%10
			opts := Options{
				Multipath: kind&3 == 1,
				MaxDetour: candidateDetours[kind>>2&3],
				MaxPaths:  candidateCaps[kind>>5&3],
				Spread:    kind&3 == 0 && kind&0x10 != 0,
			}
			u, err := a.Unicast(src, dst, n, opts)
			want, wantErr := refUnicast(ref, src, dst, n, opts)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%d->%d %d slots %+v: Unicast err %v, reference err %v", src, dst, n, opts, err, wantErr)
			}
			if err != nil {
				var got, exp ErrNoCapacity
				if errors.As(err, &got) != errors.As(wantErr, &exp) || got != exp {
					t.Fatalf("%d->%d %d slots %+v: Unicast err %v, reference err %v", src, dst, n, opts, err, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(u.Paths, want.Paths) {
				t.Fatalf("%d->%d %d slots %+v: Unicast took %v, reference %v", src, dst, n, opts, u.Paths, want.Paths)
			}
			live, liveRef = append(live, u), append(liveRef, want)
		}
		if a.Fingerprint() != ref.Fingerprint() {
			t.Fatal("allocator states diverged")
		}
	})
}

// candidateDetours are the MaxDetour values FuzzUnicastCandidates draws:
// shortest paths, small detours, and TestDetourSearchIsBounded's 8.
var candidateDetours = [4]int{0, 1, 2, 8}

// candidateCaps are the MaxPaths values FuzzUnicastCandidates draws: the
// default 8, one path, a few, and the 16 the aelite host uses.
var candidateCaps = [4]int{0, 1, 3, 16}

// refUnicast is Unicast as it was when the path cache enumerated 64
// candidates and Unicast sliced them to MaxPaths: it enumerates afresh,
// bypassing the cache, and selects slots the same way.
func refUnicast(a *Allocator, src, dst topology.NodeID, nslots int, opts Options) (*Unicast, error) {
	opts = opts.withDefaults()
	avoid := a.avoidSet()
	min := a.g.DistanceAvoidingDense(src, dst, avoid)
	if min < 0 {
		return nil, errors.New("unreachable")
	}
	paths, _ := a.g.SimplePathsAvoidingDense(src, dst, min+opts.MaxDetour, 64, avoid)
	if len(paths) > opts.MaxPaths {
		paths = paths[:opts.MaxPaths]
	}
	if !opts.Multipath {
		best := 0
		for _, p := range paths {
			cand := a.CandidateSlots(p)
			if cand.Count() >= nslots {
				take := firstN(cand, nslots)
				if opts.Spread {
					take = PickSpread(cand, nslots)
				}
				u := &Unicast{Src: src, Dst: dst, Paths: []PathAlloc{{Path: p, InjectSlots: take}}}
				a.commitUnicast(u)
				return u, nil
			}
			best = max(best, cand.Count())
		}
		return nil, ErrNoCapacity{Want: nslots, Got: best}
	}
	mark := a.beginTxn()
	u := &Unicast{Src: src, Dst: dst}
	remaining := nslots
	for _, p := range paths {
		if remaining == 0 {
			break
		}
		cand := a.CandidateSlots(p)
		if cand.Empty() {
			continue
		}
		pa := PathAlloc{Path: p, InjectSlots: firstN(cand, remaining)}
		a.commitUnicast(&Unicast{Src: src, Dst: dst, Paths: []PathAlloc{pa}})
		u.Paths = append(u.Paths, pa)
		remaining -= pa.InjectSlots.Count()
	}
	if remaining > 0 {
		a.abortTxn(mark)
		return nil, ErrNoCapacity{Want: nslots, Got: nslots - remaining}
	}
	a.commitTxn()
	return u, nil
}

// FuzzDryRun checks the what-if contract on a fuzzer-chosen op stream:
// before every admission, DryRun leaves the fingerprint, epoch, excluded
// links, exclusion generation and journal as it found them, and predicts
// exactly what the AllocateUseCase that follows commits — the same paths
// and slots, or the same error. data[0] picks the topology, then each op
// is four bytes: kind, source, destination, argument. The low three bits
// of kind select a forward+reverse unicast pair (0-3, which also pick
// MaxPaths from candidateCaps), a two-destination multicast, the release
// of a live use-case, an ExcludeLink (the link ID is source and
// destination as one 16-bit number) or an IncludeLink of an excluded
// link; bit 3 asks the pair for Multipath, bit 4 for Spread and bits 5-6
// pick MaxDetour from candidateDetours.
func FuzzDryRun(f *testing.F) {
	mesh8, err := topology.NewMesh(topology.MeshSpec{Width: 8, Height: 8, NIsPerRouter: 1})
	if err != nil {
		f.Fatal(err)
	}
	torus16, err := topology.NewMesh(topology.MeshSpec{Width: 16, Height: 16, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		f.Fatal(err)
	}
	meshes := []*topology.Mesh{mesh8, torus16}
	const wheel = 8

	f.Add([]byte{0, 0, 1, 9, 3, 4, 2, 10, 1, 0x08 | 2<<5, 0, 18, 5, 5, 0, 0, 0, 0x18, 1, 9, 7})
	f.Add([]byte{1, 6, 0, 40, 0, 1, 0, 17, 2, 0x19, 0, 17, 3, 7, 0, 0, 0, 0x2a, 16, 1, 6})
	f.Add([]byte{0, 0x0b | 1<<5, 10, 23, 3, 0x08 | 2<<5, 10, 23, 4, 0x0b | 2<<5, 23, 10, 3, 5, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := meshes[int(data[0])%len(meshes)]
		a := New(m.Graph, wheel)
		ni := func(b byte) topology.NodeID { return m.AllNIs[int(b)%len(m.AllNIs)] }
		var live []*UseCaseAlloc
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			kind, sb, db, arg := ops[0], ops[1], ops[2], ops[3]
			src, dst := ni(sb), ni(db)
			var reqs []Request
			switch kind & 7 {
			case 4:
				reqs = []Request{{Src: src, Dsts: []topology.NodeID{dst, ni(sb + db + 1)}, Slots: 1 + int(arg)%3}}
			case 5:
				if len(live) > 0 {
					j := int(sb) % len(live)
					a.ReleaseUseCase(live[j])
					live = slices.Delete(live, j, j+1)
				}
				continue
			case 6:
				a.ExcludeLink(topology.LinkID((int(sb)<<8 | int(db)) % m.NumLinks()))
				continue
			case 7:
				if ex := a.ExcludedLinks(); len(ex) > 0 {
					a.IncludeLink(ex[int(sb)%len(ex)])
				}
				continue
			default:
				opts := Options{
					Multipath: kind&0x08 != 0,
					Spread:    kind&0x10 != 0,
					MaxDetour: candidateDetours[kind>>5&3],
					MaxPaths:  candidateCaps[kind&3],
				}
				reqs = []Request{
					{Src: src, Dst: dst, Slots: 1 + int(arg)%6, Opts: opts},
					{Src: dst, Dst: src, Slots: 1 + int(arg>>4)%2, Opts: opts},
				}
			}

			fp, epoch, excluded := a.Fingerprint(), a.Epoch(), a.ExcludedLinks()
			gen, cacheGen, journal := a.gen, a.cache.nextGen, len(a.journal)
			want, wantErr := a.DryRun(reqs)
			if a.Fingerprint() != fp || a.Epoch() != epoch || !slices.Equal(a.ExcludedLinks(), excluded) ||
				a.gen != gen || a.cache.nextGen != cacheGen || len(a.journal) != journal {
				t.Fatalf("DryRun(%+v) changed the allocator", reqs)
			}
			got, err := a.AllocateUseCase(reqs)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%+v: DryRun err %v, AllocateUseCase err %v", reqs, wantErr, err)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: DryRun predicted %+v, AllocateUseCase committed %+v", reqs, want, got)
			}
			live = append(live, got)
		}
	})
}
