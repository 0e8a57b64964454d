package slots

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaskBasics(t *testing.T) {
	m := MaskOf(8, 4, 7)
	if !m.Has(4) || !m.Has(7) || m.Has(3) {
		t.Fatal("membership wrong")
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d", m.Count())
	}
	got := m.Slots()
	if len(got) != 2 || got[0] != 4 || got[1] != 7 {
		t.Fatalf("Slots = %v", got)
	}
	if m.String() != "10010000" {
		t.Fatalf("String = %q", m.String())
	}
	m = m.Without(4)
	if m.Has(4) || m.Count() != 1 {
		t.Fatal("Without failed")
	}
	if !NewMask(8).Empty() {
		t.Fatal("new mask not empty")
	}
}

// TestMaskMaxGap pins the gap law every scheduling bound is built on:
// the worst circular wait, in slots, to the next reserved slot.
func TestMaskMaxGap(t *testing.T) {
	cases := []struct {
		name string
		mask Mask
		want int
	}{
		{"empty", NewMask(8), math.MaxInt32},
		{"single slot", MaskOf(8, 3), 8},
		{"full", Mask{Bits: 0xFF, Size: 8}, 1},
		{"adjacent", MaskOf(8, 0, 1), 7},
		{"wrap-around", MaskOf(8, 2, 5), 5},
		{"E8 mask", MaskOf(8, 0, 4), 4},
	}
	for _, c := range cases {
		if got := c.mask.MaxGap(); got != c.want {
			t.Errorf("%s: MaxGap(%s) = %d, want %d", c.name, c.mask, got, c.want)
		}
	}
}

func TestMaskPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMask(8).With(8)
}

func TestMaskSizePanics(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewMask(%d) did not panic", n)
				}
			}()
			NewMask(n)
		}()
	}
}

// TestFig6Rotation reproduces the paper's Fig. 6 numbers: the packet
// carries {4,7}; after one rotation R-11 sees {3,6}; after two, R-10 sees
// {2,5}.
func TestFig6Rotation(t *testing.T) {
	m := MaskOf(8, 4, 7)
	r1 := m.RotateDown(1)
	if got := r1.Slots(); len(got) != 2 || got[0] != 3 || got[1] != 6 {
		t.Fatalf("after 1 rotation: %v, want [3 6]", got)
	}
	r2 := r1.RotateDown(1)
	if got := r2.Slots(); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("after 2 rotations: %v, want [2 5]", got)
	}
}

func TestRotateWraps(t *testing.T) {
	m := MaskOf(8, 0)
	r := m.RotateDown(1)
	if got := r.Slots(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("slot 0 rotated down = %v, want [7]", got)
	}
	u := m.RotateUp(1)
	if got := u.Slots(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("slot 0 rotated up = %v, want [1]", got)
	}
}

func TestRotateInverseProperty(t *testing.T) {
	f := func(bits uint64, size8 uint8, k8 uint8) bool {
		size := int(size8%MaxTableSize) + 1
		k := int(k8) % (2 * size)
		m := Mask{Bits: bits & wheelMask(size), Size: size}
		return m.RotateDown(k).RotateUp(k) == m && m.RotateUp(k).RotateDown(k) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRotatePreservesCount(t *testing.T) {
	f := func(bits uint64, size8 uint8, k8 uint8) bool {
		size := int(size8%MaxTableSize) + 1
		k := int(k8)
		m := Mask{Bits: bits & wheelMask(size), Size: size}
		return m.RotateDown(k).Count() == m.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRotateFullTurnIdentity(t *testing.T) {
	f := func(bits uint64, size8 uint8) bool {
		size := int(size8%MaxTableSize) + 1
		m := Mask{Bits: bits & wheelMask(size), Size: size}
		return m.RotateDown(size) == m && m.RotateUp(size) == m && m.RotateDown(0) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRotateComposes(t *testing.T) {
	f := func(bits uint64, size8, a8, b8 uint8) bool {
		size := int(size8%MaxTableSize) + 1
		a, b := int(a8%64), int(b8%64)
		m := Mask{Bits: bits & wheelMask(size), Size: size}
		return m.RotateDown(a).RotateDown(b) == m.RotateDown(a+b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaskSetOps(t *testing.T) {
	a := MaskOf(16, 1, 2, 3)
	b := MaskOf(16, 3, 4)
	if got := a.Union(b).Slots(); len(got) != 4 {
		t.Fatalf("union = %v", got)
	}
	if got := a.Intersect(b).Slots(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("intersect = %v", got)
	}
	if !a.Overlaps(b) {
		t.Fatal("Overlaps false")
	}
	if a.Overlaps(MaskOf(16, 8)) {
		t.Fatal("Overlaps true for disjoint")
	}
}

func TestMaskMixedWheelsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaskOf(8, 1).Union(MaskOf(16, 1))
}

func TestRouterTable(t *testing.T) {
	rt := NewRouterTable(3, 8)
	if rt.Size() != 8 || rt.NumOutputs() != 3 {
		t.Fatal("dims wrong")
	}
	for o := 0; o < 3; o++ {
		for s := 0; s < 8; s++ {
			if rt.Input(o, s) != NoInput {
				t.Fatal("fresh table not idle")
			}
		}
	}
	if err := rt.Set(2, MaskOf(8, 3, 6), 1); err != nil {
		t.Fatal(err)
	}
	if rt.Input(2, 3) != 1 || rt.Input(2, 6) != 1 {
		t.Fatal("Set did not apply")
	}
	if rt.Input(2, 4) != NoInput {
		t.Fatal("Set leaked to other slots")
	}
	if got := rt.OccupiedMask(2).Slots(); len(got) != 2 {
		t.Fatalf("OccupiedMask = %v", got)
	}
	// Tear down.
	if err := rt.Set(2, MaskOf(8, 3), NoInput); err != nil {
		t.Fatal(err)
	}
	if rt.Input(2, 3) != NoInput {
		t.Fatal("teardown failed")
	}
	if err := rt.Set(5, MaskOf(8, 0), 0); err == nil {
		t.Fatal("out-of-range output accepted")
	}
	if err := rt.Set(0, MaskOf(16, 0), 0); err == nil {
		t.Fatal("wheel mismatch accepted")
	}
}

func TestRouterTableMulticast(t *testing.T) {
	rt := NewRouterTable(4, 8)
	// Two outputs fed by the same input in the same slot: multicast.
	if err := rt.Set(1, MaskOf(8, 5), 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.Set(2, MaskOf(8, 5), 0); err != nil {
		t.Fatal(err)
	}
	if rt.Input(1, 5) != 0 || rt.Input(2, 5) != 0 {
		t.Fatal("multicast entries lost")
	}
}

func TestRouterTableClone(t *testing.T) {
	rt := NewRouterTable(2, 8)
	_ = rt.Set(0, MaskOf(8, 1), 1)
	c := rt.Clone()
	_ = c.Set(0, MaskOf(8, 1), NoInput)
	if rt.Input(0, 1) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestNITable(t *testing.T) {
	nt := NewNITable(8)
	if err := nt.SetSend(MaskOf(8, 1, 4), 2); err != nil {
		t.Fatal(err)
	}
	if ch, ok := nt.Send(1); !ok || ch != 2 {
		t.Fatalf("send duty = %d %v", ch, ok)
	}
	if _, ok := nt.Send(2); ok {
		t.Fatal("idle slot disturbed")
	}
	if got := nt.OccupiedMask().Count(); got != 2 {
		t.Fatalf("occupied = %d", got)
	}
	if err := nt.SetSend(MaskOf(16, 0), 0); err == nil {
		t.Fatal("wheel mismatch accepted")
	}
	if err := nt.SetReceive(MaskOf(16, 0), 0); err == nil {
		t.Fatal("wheel mismatch accepted")
	}
	c := nt.Clone()
	_ = c.SetSend(MaskOf(8, 1), NoChannel)
	if _, ok := nt.Send(1); !ok {
		t.Fatal("clone aliases original")
	}
}

// TestNITableFullDuplex pins the full-duplex property the allocator relies
// on: a slot can hold a transmit duty and a receive duty simultaneously
// without either clobbering the other.
func TestNITableFullDuplex(t *testing.T) {
	nt := NewNITable(8)
	if err := nt.SetSend(MaskOf(8, 3), 1); err != nil {
		t.Fatal(err)
	}
	if err := nt.SetReceive(MaskOf(8, 3), 2); err != nil {
		t.Fatal(err)
	}
	tx, okTx := nt.Send(3)
	rx, okRx := nt.Receive(3)
	if !okTx || tx != 1 || !okRx || rx != 2 {
		t.Fatalf("duplex slot broken: tx=%d/%v rx=%d/%v", tx, okTx, rx, okRx)
	}
	if got := nt.SendMask().Count(); got != 1 {
		t.Fatalf("send mask = %d", got)
	}
	if got := nt.ReceiveMask().Count(); got != 1 {
		t.Fatalf("recv mask = %d", got)
	}
	// Clearing one direction leaves the other.
	if err := nt.SetSend(MaskOf(8, 3), NoChannel); err != nil {
		t.Fatal(err)
	}
	if _, ok := nt.Send(3); ok {
		t.Fatal("send not cleared")
	}
	if _, ok := nt.Receive(3); !ok {
		t.Fatal("receive clobbered by send teardown")
	}
}

func TestSlotOfCycle(t *testing.T) {
	// 2-word slots, 8-slot wheel: cycle 2 is slot 1 (word 0), cycle 3 is
	// slot 1 (word 1); cycle 16 wraps to slot 0.
	cases := []struct {
		cycle uint64
		want  int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {14, 7}, {15, 7}, {16, 0}}
	for _, c := range cases {
		if got := SlotOfCycle(c.cycle, 2, 8); got != c.want {
			t.Fatalf("SlotOfCycle(%d) = %d, want %d", c.cycle, got, c.want)
		}
	}
}

func TestCycleOfSlot(t *testing.T) {
	// From cycle 0, slot 3 with 2-word slots starts at cycle 6.
	if got := CycleOfSlot(0, 3, 2, 8); got != 6 {
		t.Fatalf("CycleOfSlot = %d, want 6", got)
	}
	// From cycle 7 (inside slot 3), the next start of slot 3 is cycle 22.
	if got := CycleOfSlot(7, 3, 2, 8); got != 22 {
		t.Fatalf("CycleOfSlot = %d, want 22", got)
	}
	// Exactly at the start is returned as-is.
	if got := CycleOfSlot(6, 3, 2, 8); got != 6 {
		t.Fatalf("CycleOfSlot = %d, want 6", got)
	}
}

func TestCycleOfSlotAlwaysAligned(t *testing.T) {
	f := func(from16 uint16, s8, words8, size8 uint8) bool {
		size := int(size8%MaxTableSize) + 1
		words := int(words8%4) + 1
		s := int(s8) % size
		from := uint64(from16)
		c := CycleOfSlot(from, s, words, size)
		return c >= from && SlotOfCycle(c, words, size) == s && c%uint64(words) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
