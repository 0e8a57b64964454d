package alloc

import (
	"fmt"
)

// fnv-1a constants, the same fold every determinism fingerprint in the
// repository uses.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Fingerprint folds the allocator's complete occupancy state — every
// link, TX and RX slot word plus the wheel size — into one order-
// sensitive hash. Two allocators over the same graph hold identical
// reservation state exactly when their fingerprints agree, which is how
// the control plane verifies that snapshot-plus-journal replay
// reconstructed the pre-restart occupancy. Trailing all-zero words are
// ignored, so allocators whose dense slices grew differently but hold
// the same reservations agree.
func (a *Allocator) Fingerprint() uint64 {
	h := fnv1a(fnvOffset, uint64(a.wheel))
	fold := func(tag uint64, words []uint64) uint64 {
		last := len(words)
		for last > 0 && words[last-1] == 0 {
			last--
		}
		hh := fnv1a(h, tag)
		hh = fnv1a(hh, uint64(last))
		for _, w := range words[:last] {
			hh = fnv1a(hh, w)
		}
		return hh
	}
	h = fold(1, a.linkOcc)
	h = fold(2, a.niTX)
	h = fold(3, a.niRX)
	return h
}

// AdoptUnicast re-commits a reservation recorded elsewhere (a control-
// plane snapshot) into this allocator, verifying first that every slot it
// names is still free. It is the restore-side counterpart of Unicast:
// the paths and slot masks are taken verbatim instead of being searched
// for, so a restored allocator reproduces the exact occupancy the
// snapshot captured.
func (a *Allocator) AdoptUnicast(u *Unicast) error {
	if !a.unicastFits(u) {
		return fmt.Errorf("alloc: adopt unicast %d->%d: slots already occupied", u.Src, u.Dst)
	}
	a.commitUnicast(u)
	return nil
}

// AdoptMulticast re-commits a recorded multicast tree, verifying its
// slots are still free. See AdoptUnicast.
func (a *Allocator) AdoptMulticast(m *Multicast) error {
	if !a.multicastFits(m) {
		return fmt.Errorf("alloc: adopt multicast from %d: slots already occupied", m.Src)
	}
	a.commitMulticast(m)
	return nil
}

// unicastFits reports whether u's exact reservation is collision-free
// against the current occupancy.
func (a *Allocator) unicastFits(u *Unicast) bool {
	for _, pa := range u.Paths {
		if pa.InjectSlots.Bits&a.txBits(u.Src) != 0 {
			return false
		}
		off := 0
		for _, l := range pa.Path {
			if pa.InjectSlots.RotateUp(off).Bits&a.linkBits(l) != 0 {
				return false
			}
			off += a.g.SlotAdvance(l)
		}
		if pa.InjectSlots.RotateUp(off).Bits&a.rxBits(u.Dst) != 0 {
			return false
		}
	}
	return true
}

// multicastFits reports whether m's exact reservation is collision-free
// against the current occupancy.
func (a *Allocator) multicastFits(m *Multicast) bool {
	if m.InjectSlots.Bits&a.txBits(m.Src) != 0 {
		return false
	}
	for _, e := range m.Edges {
		if m.InjectSlots.RotateUp(e.Depth).Bits&a.linkBits(e.Link) != 0 {
			return false
		}
	}
	for d, dep := range m.DestDepth {
		if m.InjectSlots.RotateUp(dep).Bits&a.rxBits(d) != 0 {
			return false
		}
	}
	return true
}
