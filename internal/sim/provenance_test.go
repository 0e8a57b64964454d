package sim

import (
	"strings"
	"testing"

	"daelite/internal/phit"
)

func TestProvenanceRoundTrip(t *testing.T) {
	s := New()
	a := s.Add(&Func{Label: "stamper"})
	if got := s.Provenance(0); got != (phit.Tag{}) {
		t.Fatalf("Provenance(0) = %+v, want the zero Tag", got)
	}
	// Far more words than the initial ring in one cycle: every entry is
	// live, so the ring grows instead of overwriting.
	refs := make([]uint32, 5*provenanceRing)
	for i := range refs {
		refs[i] = s.Stamp(a, phit.Tag{Channel: 7, Seq: uint64(i), SubmitCycle: 3})
	}
	s.Step()
	for i, ref := range refs {
		want := phit.Tag{Channel: 7, Seq: uint64(i), SubmitCycle: 3, InjectCycle: 1}
		if got := s.Provenance(ref); got != want {
			t.Fatalf("handle %d: %+v, want %+v", ref, got, want)
		}
	}
	if src, tag, ok := s.Origin(refs[3]); !ok || src != "stamper" || tag.Seq != 3 {
		t.Fatalf("Origin = %q, %+v, %v", src, tag, ok)
	}
	if _, _, ok := s.Origin(0); ok {
		t.Fatal("Origin(0) reports a source")
	}
}

// TestProvenanceOverwrittenIsLoud: once an entry has outlived the hold,
// later words may reuse its slot, and reading its handle then panics,
// naming the handle, rather than returning another word's Tag.
func TestProvenanceOverwrittenIsLoud(t *testing.T) {
	s := New()
	a := s.Add(&Func{Label: "stamper"})
	old := s.Stamp(a, phit.Tag{Seq: 1})
	s.Run(minProvenanceHold + 1)
	var last uint32
	for range provenanceRing {
		last = s.Stamp(a, phit.Tag{Seq: 2})
	}
	if last&(provenanceRing-1) != old&(provenanceRing-1) {
		t.Fatalf("handle %d does not reuse the slot of %d", last, old)
	}
	if _, _, ok := s.Origin(old); ok {
		t.Fatal("Origin resolves an overwritten handle")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "provenance handle 1 was overwritten") {
			t.Fatalf("reading an overwritten handle: recovered %q", msg)
		}
	}()
	got := s.Provenance(old)
	t.Fatalf("overwritten handle %d resolved to %+v", old, got)
}

// TestHoldProvenanceKeepsEntries: a platform that declares a longer
// flight keeps older entries live, so the ring grows rather than reuse
// their slots.
func TestHoldProvenanceKeepsEntries(t *testing.T) {
	s := New()
	a := s.Add(&Func{Label: "stamper"})
	s.HoldProvenance(1000)
	old := s.Stamp(a, phit.Tag{Seq: 1})
	s.Run(minProvenanceHold + 1)
	for range provenanceRing {
		s.Stamp(a, phit.Tag{Seq: 2})
	}
	if got := s.Provenance(old); got.Seq != 1 {
		t.Fatalf("held handle resolved to %+v", got)
	}
}
