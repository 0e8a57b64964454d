package slots_test

import (
	"testing"

	"daelite/internal/slots"
)

// Property fuzzer for the rotation algebra the whole allocator and
// set-up flow lean on: slot masks form a cyclic group under rotation, so
// rotating a full turn is the identity, up and down rotations invert
// each other, and the per-hop mask compensation of a set-up packet (each
// link's mask is the inject mask rotated by the cumulative slot advance)
// is path-order independent. Seeds cover the wheel sizes the platform
// uses plus the 64-bit boundary; `go test -fuzz FuzzRotateMaskCompensation`
// explores further.

func fuzzMask(bits uint64, sizeSel uint8) slots.Mask {
	size := 1 + int(sizeSel)%64
	wheel := ^uint64(0)
	if size < 64 {
		wheel = (1 << uint(size)) - 1
	}
	return slots.Mask{Bits: bits & wheel, Size: size}
}

func FuzzRotateMaskCompensation(f *testing.F) {
	f.Add(uint64(0b1010), uint8(7), uint8(3), []byte{1, 2, 3})
	f.Add(uint64(1), uint8(15), uint8(0), []byte{4})
	f.Add(uint64(0xFFFF), uint8(15), uint8(31), []byte{})
	f.Add(uint64(0x8000000000000001), uint8(63), uint8(65), []byte{9, 1, 1, 7})
	f.Add(uint64(0), uint8(31), uint8(12), []byte{2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, bits uint64, sizeSel, k uint8, adv []byte) {
		m := fuzzMask(bits, sizeSel)
		n := m.Size
		kk := int(k)

		// Round-trip inverse: up then down by the same amount is the
		// identity, for any rotation, including ones past a full turn.
		if got := m.RotateUp(kk).RotateDown(kk); got.Bits != m.Bits {
			t.Fatalf("RotateUp(%d).RotateDown(%d) = %s, want %s", kk, kk, got, m)
		}

		// rotate^N == id: N single-slot rotations walk the wheel exactly
		// once, and a single N-slot rotation says the same thing.
		r := m
		for i := 0; i < n; i++ {
			r = r.RotateUp(1)
		}
		if r.Bits != m.Bits {
			t.Fatalf("RotateUp(1)^%d = %s, want identity %s", n, r, m)
		}
		if got := m.RotateUp(n); got.Bits != m.Bits {
			t.Fatalf("RotateUp(%d) = %s, want identity %s", n, got, m)
		}

		// Rotation permutes, never loses: count and membership map.
		up := m.RotateUp(kk)
		if up.Count() != m.Count() {
			t.Fatalf("RotateUp(%d) changed population %d -> %d", kk, m.Count(), up.Count())
		}
		for s := 0; s < n; s++ {
			if up.Has((s+kk)%n) != m.Has(s) {
				t.Fatalf("slot %d: RotateUp(%d) membership mismatch (%s vs %s)", s, kk, m, up)
			}
		}

		// Per-hop mask compensation: a set-up packet carries, for the
		// j-th link, the inject mask rotated up by the cumulative slot
		// advance of the hops before it. Accumulating hop by hop must
		// land on the same mask as one rotation by the total — the law
		// that lets the allocator check a whole path with one rotate per
		// link.
		if len(adv) > 16 {
			adv = adv[:16]
		}
		hop, total := m, 0
		for _, a := range adv {
			step := 1 + int(a)%4 // SlotAdvance is 1 + pipeline stages
			hop = hop.RotateUp(step)
			total += step
		}
		if want := m.RotateUp(total); hop.Bits != want.Bits {
			t.Fatalf("hop-by-hop %s != RotateUp(%d) %s", hop, total, want)
		}
		// And the destination can recover the inject mask by
		// compensating the total advance back down.
		if got := hop.RotateDown(total); got.Bits != m.Bits {
			t.Fatalf("advance %d not compensated: %s, want %s", total, got, m)
		}
	})
}

// naiveRouterTable is the unpacked reference model of RouterTable: one
// int per (output, slot). The packed implementation must answer every
// lookup, occupancy and rotation question exactly as this one does.
type naiveRouterTable struct {
	numOutputs, size int
	entries          [][]int
}

func newNaiveRouterTable(numOutputs, size int) *naiveRouterTable {
	t := &naiveRouterTable{numOutputs: numOutputs, size: size}
	for o := 0; o < numOutputs; o++ {
		row := make([]int, size)
		for s := range row {
			row[s] = slots.NoInput
		}
		t.entries = append(t.entries, row)
	}
	return t
}

func (t *naiveRouterTable) set(out int, mask slots.Mask, in int) {
	for _, s := range mask.Slots() {
		t.entries[out][s] = in
	}
}

func (t *naiveRouterTable) occupiedMask(out int) slots.Mask {
	m := slots.NewMask(t.size)
	for s := 0; s < t.size; s++ {
		if t.entries[out][s] != slots.NoInput {
			m = m.With(s)
		}
	}
	return m
}

// naiveNITable is the unpacked reference model of NITable.
type naiveNITable struct {
	size int
	tx   []int
	rx   []int
}

func newNaiveNITable(size int) *naiveNITable {
	t := &naiveNITable{size: size, tx: make([]int, size), rx: make([]int, size)}
	for s := 0; s < size; s++ {
		t.tx[s], t.rx[s] = slots.NoChannel, slots.NoChannel
	}
	return t
}

func (t *naiveNITable) mask(row []int) slots.Mask {
	m := slots.NewMask(t.size)
	for s, ch := range row {
		if ch != slots.NoChannel {
			m = m.With(s)
		}
	}
	return m
}

// applyPackedOps drives one randomized op sequence into a packed router
// table, a packed NI table and their naive models, then checks every
// observable answer agrees. Shared by the deterministic property test
// and the fuzz target.
func applyPackedOps(t *testing.T, sizeSel uint8, ops []byte) {
	size := 1 + int(sizeSel)%slots.MaxTableSize
	const numOutputs = 5
	rt := slots.NewRouterTable(numOutputs, size)
	nrt := newNaiveRouterTable(numOutputs, size)
	nt := slots.NewNITable(size)
	nnt := newNaiveNITable(size)

	// Each op consumes 4 bytes: kind, target, selector, and a mask seed
	// expanded into a multi-slot mask (the packed write path crosses
	// 8-slot word boundaries only through masks).
	for len(ops) >= 4 {
		kind, target, selB, seed := ops[0], ops[1], ops[2], ops[3]
		ops = ops[4:]
		mask := slots.NewMask(size)
		for b := 0; b < 3; b++ {
			mask = mask.With((int(seed) * (b*7 + 1)) % size)
		}
		sel := int(selB)%10 - 1 // NoInput/NoChannel .. 8
		switch kind % 3 {
		case 0:
			out := int(target) % numOutputs
			if err := rt.Set(out, mask, sel); err != nil {
				t.Fatalf("router Set(%d, %s, %d): %v", out, mask, sel, err)
			}
			nrt.set(out, mask, sel)
		case 1:
			if err := nt.SetSend(mask, sel); err != nil {
				t.Fatalf("SetSend(%s, %d): %v", mask, sel, err)
			}
			for _, s := range mask.Slots() {
				nnt.tx[s] = sel
			}
		case 2:
			if err := nt.SetReceive(mask, sel); err != nil {
				t.Fatalf("SetReceive(%s, %d): %v", mask, sel, err)
			}
			for _, s := range mask.Slots() {
				nnt.rx[s] = sel
			}
		}
	}

	for o := 0; o < numOutputs; o++ {
		want := nrt.occupiedMask(o)
		if got := rt.OccupiedMask(o); got.Bits != want.Bits || got.Size != want.Size {
			t.Fatalf("output %d: OccupiedMask %s, naive %s", o, got, want)
		}
		for s := 0; s < size; s++ {
			if got, want := rt.Input(o, s), nrt.entries[o][s]; got != want {
				t.Fatalf("Input(%d,%d) = %d, naive %d", o, s, got, want)
			}
			if got, want := rt.Occupied(o, s), nrt.entries[o][s] != slots.NoInput; got != want {
				t.Fatalf("Occupied(%d,%d) = %v, naive %v", o, s, got, want)
			}
			if got, want := rt.Drives(s)&(1<<o) != 0, nrt.entries[o][s] != slots.NoInput; got != want {
				t.Fatalf("Drives(%d) bit %d = %v, naive %v", s, o, got, want)
			}
		}
		// The rotation law must commute with packing: rotating the O(1)
		// occupancy answer equals rotating the naive scan's answer.
		if got, want := rt.OccupiedMask(o).RotateUp(3), want.RotateUp(3); got.Bits != want.Bits {
			t.Fatalf("output %d: rotated occupancy %s, naive %s", o, got, want)
		}
	}
	if got, want := nt.SendMask(), nnt.mask(nnt.tx); got.Bits != want.Bits || got.Size != want.Size {
		t.Fatalf("SendMask %s, naive %s", got, want)
	}
	if got, want := nt.ReceiveMask(), nnt.mask(nnt.rx); got.Bits != want.Bits || got.Size != want.Size {
		t.Fatalf("ReceiveMask %s, naive %s", got, want)
	}
	if got, want := nt.OccupiedMask(), nnt.mask(nnt.tx).Union(nnt.mask(nnt.rx)); got.Bits != want.Bits {
		t.Fatalf("NI OccupiedMask %s, naive %s", got, want)
	}
	for s := 0; s < size; s++ {
		if extra := rt.Drives(s) >> numOutputs; extra != 0 {
			t.Fatalf("Drives(%d) = %08b names outputs past %d", s, rt.Drives(s), numOutputs)
		}
		e := nt.Entry(s)
		if e.TX != nnt.tx[s] || e.RX != nnt.rx[s] {
			t.Fatalf("Entry(%d) = %+v, naive TX=%d RX=%d", s, e, nnt.tx[s], nnt.rx[s])
		}
		if ch, ok := nt.Send(s); ch != nnt.tx[s] || ok != (nnt.tx[s] != slots.NoChannel) {
			t.Fatalf("Send(%d) = %d,%v, naive %d", s, ch, ok, nnt.tx[s])
		}
		if ch, ok := nt.Receive(s); ch != nnt.rx[s] || ok != (nnt.rx[s] != slots.NoChannel) {
			t.Fatalf("Receive(%d) = %d,%v, naive %d", s, ch, ok, nnt.rx[s])
		}
	}

	// Clones answer identically and do not alias the original.
	rc, nc := rt.Clone(), nt.Clone()
	for s := 0; s < size; s++ {
		if rc.Drives(s) != rt.Drives(s) {
			t.Fatalf("clone Drives(%d) = %08b, original %08b", s, rc.Drives(s), rt.Drives(s))
		}
	}
	full := slots.Mask{Bits: wheelBits(size), Size: size}
	if err := rc.Set(0, full, 3); err != nil {
		t.Fatalf("clone Set: %v", err)
	}
	if err := nc.SetSend(full, 3); err != nil {
		t.Fatalf("clone SetSend: %v", err)
	}
	if got, want := rt.OccupiedMask(0), nrt.occupiedMask(0); got.Bits != want.Bits {
		t.Fatalf("clone write aliased router original: %s vs %s", got, want)
	}
	if got, want := nt.SendMask(), nnt.mask(nnt.tx); got.Bits != want.Bits {
		t.Fatalf("clone write aliased NI original: %s vs %s", got, want)
	}
	if rc.OccupiedMask(0).Bits != full.Bits || nc.SendMask().Bits != full.Bits {
		t.Fatalf("clone writes lost: %s / %s", rc.OccupiedMask(0), nc.SendMask())
	}
	for s := 0; s < size; s++ {
		if got, want := rt.Drives(s)&1 != 0, nrt.entries[0][s] != slots.NoInput; got != want {
			t.Fatalf("clone write aliased Drives(%d) of the original: bit 0 = %v, naive %v", s, got, want)
		}
		if got, want := rc.Drives(s), rt.Drives(s)|1; got != want {
			t.Fatalf("clone Drives(%d) = %08b after its write, want %08b", s, got, want)
		}
	}
}

func wheelBits(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// TestPackedTablesMatchNaive drives deterministic op sequences over the
// wheel sizes the platform uses plus the 64-bit boundary.
func TestPackedTablesMatchNaive(t *testing.T) {
	for _, size := range []uint8{7, 8, 15, 31, 63, 9, 16, 2} {
		var ops []byte
		x := uint64(size)*2654435761 + 12345
		for i := 0; i < 48; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			ops = append(ops, byte(x>>33))
		}
		applyPackedOps(t, size, ops)
	}
}

// FuzzPackedTables explores random op sequences; `go test -fuzz
// FuzzPackedTables ./internal/slots` digs past the seeds.
func FuzzPackedTables(f *testing.F) {
	f.Add(uint8(7), []byte{0, 1, 2, 3, 1, 0, 9, 200, 2, 4, 5, 6})
	f.Add(uint8(63), []byte{2, 2, 2, 255, 1, 1, 0, 0, 0, 3, 3, 3})
	f.Add(uint8(15), []byte{})
	f.Add(uint8(0), []byte{1, 0, 0, 0})
	// Program output 1, then tear the same slots down.
	f.Add(uint8(7), []byte{0, 1, 5, 3, 0, 1, 0, 3})
	f.Fuzz(applyPackedOps)
}
