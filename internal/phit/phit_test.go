package phit

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestIdle(t *testing.T) {
	f := Idle()
	if f.Valid || f.CreditValid {
		t.Fatal("Idle flit must be invalid")
	}
	if f.String() != "idle" {
		t.Fatalf("Idle().String() = %q", f.String())
	}
}

// TestFlitIsTheWire pins the flit to the link's hardware bits plus the
// 32-bit provenance handle, so the provenance itself cannot creep back
// onto the wire and into every register copy.
func TestFlitIsTheWire(t *testing.T) {
	if got := unsafe.Sizeof(Flit{}); got != 12 {
		t.Fatalf("Sizeof(Flit{}) = %d bytes, want 12", got)
	}
	if !(Flit{}).IsIdle() {
		t.Fatal("the zero flit is not idle")
	}
	for _, f := range []Flit{{Valid: true}, {Data: 1}, {Credit: 1}, {CreditValid: true}, {Ref: 1}} {
		if f.IsIdle() {
			t.Fatalf("%+v reads as idle", f)
		}
	}
}

func TestFlitString(t *testing.T) {
	f := Flit{Valid: true, Data: 0xDEADBEEF, Ref: 7}
	if got := f.String(); got != "d=deadbeef ref=7" {
		t.Fatalf("String() = %q", got)
	}
	f.CreditValid = true
	f.Credit = 5
	if got := f.String(); got != "d=deadbeef ref=7 cr=5" {
		t.Fatalf("String() = %q", got)
	}
	g := Flit{CreditValid: true, Credit: 2}
	if got := g.String(); got != "cr=2" {
		t.Fatalf("String() = %q", got)
	}
}

func TestNewConfigWordMasks(t *testing.T) {
	f := func(v uint8) bool {
		w := NewConfigWord(v)
		return w.Valid && w.Bits == v&0x7F && w.Bits < 128
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigWordString(t *testing.T) {
	if got := (ConfigWord{}).String(); got != "idle" {
		t.Fatalf("idle String = %q", got)
	}
	if got := NewConfigWord(0x2A).String(); got != "0x2a" {
		t.Fatalf("String = %q", got)
	}
}

func TestMergeIdentity(t *testing.T) {
	// Merging with an idle response is the identity (the property the
	// converging reverse path relies on).
	f := func(bits uint8, valid bool) bool {
		r := Response{Valid: valid, Bits: bits & 0x7F}
		m := Merge(r, Response{})
		m2 := Merge(Response{}, r)
		return m == r && m2 == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeCommutative(t *testing.T) {
	f := func(a, b uint8, va, vb bool) bool {
		x := Response{Valid: va, Bits: a & 0x7F}
		y := Response{Valid: vb, Bits: b & 0x7F}
		return Merge(x, y) == Merge(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCreditValue(t *testing.T) {
	if MaxCreditValue != 63 {
		t.Fatalf("MaxCreditValue = %d, want 63 (6-bit counter per the paper)", MaxCreditValue)
	}
}
