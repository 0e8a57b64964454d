package cfgproto

import (
	"testing"
	"testing/quick"

	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// TestDecoderStreamFuzz drives many decoders with a random but well-formed
// packet stream and checks that (a) every element applies exactly the
// pairs addressed to it, (b) the masks it receives are the transmitted
// masks rotated by the pair index, and (c) no decoder is left mid-packet.
func TestDecoderStreamFuzz(t *testing.T) {
	const wheel = 16
	const numElems = 12
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		sinks := make([]*recordSink, numElems)
		decs := make([]*elemDec, numElems)
		for i := range decs {
			sinks[i] = &recordSink{}
			if rng.Intn(2) == 0 {
				decs[i] = newElemDec(i, wheel, false, sinks[i])
			} else {
				decs[i] = newElemDec(i, wheel, true, sinks[i])
			}
		}
		type expect struct {
			elem int
			mask slots.Mask
		}
		var expected []expect
		var stream []phit.ConfigWord

		numPackets := 1 + rng.Intn(6)
		for p := 0; p < numPackets; p++ {
			switch rng.Intn(3) {
			case 0: // nop
				stream = append(stream, Header(OpNop, 0))
			case 1: // path setup
				mask := slots.Mask{Bits: rng.Uint64() & (1<<wheel - 1), Size: wheel}
				numPairs := 1 + rng.Intn(MaxPairs)
				pkt := PathSetup{Mask: mask}
				for k := 0; k < numPairs; k++ {
					elem := rng.Intn(numElems)
					pkt.Pairs = append(pkt.Pairs, Pair{
						Element: elem,
						Spec:    RouterSpec(rng.Intn(7), rng.Intn(7)),
					})
					expected = append(expected, expect{elem: elem, mask: mask.RotateDown(k)})
				}
				words, err := pkt.Words()
				if err != nil {
					return false
				}
				stream = append(stream, words...)
			case 2: // register writes
				numWrites := 1 + rng.Intn(MaxPairs)
				var writes []RegWrite
				for k := 0; k < numWrites; k++ {
					writes = append(writes, RegWrite{
						Element: rng.Intn(numElems),
						Reg:     uint8(rng.Intn(128)),
						Value:   uint8(rng.Intn(128)),
					})
				}
				words, err := WriteRegPacket(writes)
				if err != nil {
					return false
				}
				stream = append(stream, words...)
			}
			// Random idle gaps between packets.
			for g := rng.Intn(3); g > 0; g-- {
				stream = append(stream, phit.ConfigWord{})
			}
		}

		for _, w := range stream {
			for _, d := range decs {
				d.Feed(w)
			}
		}
		for i, d := range decs {
			if d.Busy() {
				return false
			}
			// Collect the applies expected for this element, in
			// order.
			var want []expect
			for _, e := range expected {
				if e.elem == i {
					want = append(want, e)
				}
			}
			if len(sinks[i].applies) != len(want) {
				return false
			}
			for k, a := range sinks[i].applies {
				if a.Mask != want[k].mask {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderGarbageResilience feeds random garbage words; decoders must
// never panic and must always return to idle given enough idle input.
func TestDecoderGarbageResilience(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		d := newElemDec(3, 16, false, &recordSink{})
		for i := 0; i < 200; i++ {
			d.Feed(phit.NewConfigWord(uint8(rng.Uint64())))
		}
		// Any packet the garbage started is bounded in length; a
		// stream of NOP headers drains it.
		for i := 0; i < MaxPairs*3+MaskWords(16)+2; i++ {
			d.Feed(Header(OpNop, 0))
		}
		return !d.Busy()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
