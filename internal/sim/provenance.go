package sim

import (
	"fmt"

	"daelite/internal/phit"
)

// Provenance arena: the Tag of a payload word lives here, not on the
// wire. The injecting component stamps it and drives the returned handle
// in phit.Flit.Ref; whoever receives the flit resolves the handle. The
// arena is a ring indexed by handle, which keeps every entry beside its
// handle, so a read of an overwritten entry is detected and fails loudly
// rather than returning another word's tag.
//
// An entry is live while it is younger than the hold: the longest time
// from a word's injection to its last read. A stamp that would overwrite
// a live entry grows the ring instead, so the ring settles at the number
// of words injected within one hold. The hold is minProvenanceHold unless
// a platform declares a longer flight (HoldProvenance).

// minProvenanceHold is the hold of a simulator no platform has sized. It
// covers the longest aelite route (7 routers, 23 cycles) and a bare pair
// of NIs wired back to back.
const minProvenanceHold = 64

// provenanceRing is the initial ring size; it grows by doubling.
const provenanceRing = 256

type provenance struct {
	ring []provEntry // length a power of two; handle h lives at h&(len-1)
	next uint32      // the last handle issued
	hold uint64
}

type provEntry struct {
	ref uint32 // 0: never written
	src int32  // the stamping component's index
	tag phit.Tag
}

// Stamp records t as the provenance of a flit the component behind src
// drives this cycle and returns the handle to put in the flit's Ref.
// It sets t.InjectCycle to the cycle the flit appears on the wire.
func (s *Simulator) Stamp(src Activity, t phit.Tag) uint32 {
	p := &s.prov
	if p.ring == nil {
		p.ring = make([]provEntry, provenanceRing)
	}
	t.InjectCycle = s.cycle + 1
	p.next++
	if p.next == 0 { // 0 is "no provenance"
		p.next = 1
	}
	e := &p.ring[p.next&uint32(len(p.ring)-1)]
	if e.ref != 0 && t.InjectCycle < e.tag.InjectCycle+p.hold {
		p.grow()
		e = &p.ring[p.next&uint32(len(p.ring)-1)]
	}
	*e = provEntry{ref: p.next, src: src.idx, tag: t}
	return p.next
}

// grow doubles the ring. The ring holds the latest handles issued, which
// are consecutive and so land in distinct slots of the larger ring.
func (p *provenance) grow() {
	ring := make([]provEntry, 2*len(p.ring))
	for _, e := range p.ring {
		if e.ref != 0 {
			ring[e.ref&uint32(len(ring)-1)] = e
		}
	}
	p.ring = ring
}

// lookup returns the live entry of handle ref, or nil if the entry was
// overwritten.
func (p *provenance) lookup(ref uint32) *provEntry {
	if len(p.ring) == 0 {
		return nil
	}
	if e := &p.ring[ref&uint32(len(p.ring)-1)]; e.ref == ref {
		return e
	}
	return nil
}

// Provenance returns the Tag stamped under ref; ref 0, an unstamped
// flit, has the zero Tag. Reading a handle whose entry was overwritten
// panics, naming the handle: a word outlived the declared hold.
func (s *Simulator) Provenance(ref uint32) phit.Tag {
	if ref == 0 {
		return phit.Tag{}
	}
	e := s.prov.lookup(ref)
	if e == nil {
		panic(fmt.Sprintf("sim: provenance handle %d was overwritten (%d entries, hold %d cycles, last handle %d)",
			ref, len(s.prov.ring), s.prov.hold, s.prov.next))
	}
	return e.tag
}

// Origin names the component that stamped ref and returns the Tag, for
// diagnostics: unlike Provenance it never panics, and ok is false for
// ref 0 and for an overwritten handle.
func (s *Simulator) Origin(ref uint32) (source string, t phit.Tag, ok bool) {
	e := s.prov.lookup(ref)
	if ref == 0 || e == nil {
		return "", phit.Tag{}, false
	}
	return s.components[e.src].Name(), e.tag, true
}

// HoldProvenance raises the arena's hold to at least cycles: the
// platform knows a word may take that long from injection to delivery.
func (s *Simulator) HoldProvenance(cycles uint64) {
	s.prov.hold = max(s.prov.hold, cycles)
}
