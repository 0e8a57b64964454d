package cfgproto

import (
	"reflect"
	"testing"

	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// TestRegionSelectRoundTrip drives the envelope through its boundary
// cases: region 0, the 1-word/2-word encoding boundary, and the last
// addressable region.
func TestRegionSelectRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		region    int
		wantWords int // ID words, excluding the header
	}{
		{"region-0", 0, 1},
		{"region-1", 1, 1},
		{"last-1-word", 127, 1},
		{"first-2-word", 128, 2},
		{"mid-2-word", 5000, 2},
		{"last-region", MaxRegions - 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := RegionSelect(tc.region)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(sel) - 1; got != tc.wantWords {
				t.Fatalf("region %d encoded in %d ID words, want %d", tc.region, got, tc.wantWords)
			}
			op, n := ParseHeader(sel[0])
			if op != OpRegion || n != tc.wantWords {
				t.Fatalf("header %v/%d, want region-select/%d", op, n, tc.wantWords)
			}
			region, consumed, err := ParseRegionSelect(sel)
			if err != nil {
				t.Fatal(err)
			}
			if region != tc.region || consumed != len(sel) {
				t.Fatalf("parsed (%d, %d), want (%d, %d)", region, consumed, tc.region, len(sel))
			}
		})
	}
	for _, bad := range []int{-1, MaxRegions} {
		if _, err := RegionSelect(bad); err == nil {
			t.Fatalf("RegionSelect(%d) accepted an out-of-range region", bad)
		}
	}
}

// TestEnvelopeRoundTripAtElementBoundary wraps path-setup packets
// addressing the edge of the region-local element-ID space (element 126,
// the last usable ID, and the reserved padding element 127) and checks
// the payload survives the envelope bit for bit, for the first and last
// region.
func TestEnvelopeRoundTripAtElementBoundary(t *testing.T) {
	const wheel = 8
	mask := slots.Mask{Bits: 0xA5, Size: wheel}
	for _, region := range []int{0, 127, 128, MaxRegions - 1} {
		for _, elem := range []int{0, 126, PadElement} {
			pkt := PathSetup{Mask: mask, Pairs: []Pair{
				{Element: elem, Spec: RouterSpec(1, 2)},
				{Element: PadElement, Spec: RouterSpec(0, 0)},
				{Element: 126, Spec: RouterSpec(3, 4)},
			}}
			words, err := pkt.Words()
			if err != nil {
				t.Fatal(err)
			}
			env, err := Envelope(region, words)
			if err != nil {
				t.Fatal(err)
			}
			gotRegion, payload, err := DecodeEnvelope(env)
			if err != nil {
				t.Fatalf("region %d elem %d: %v", region, elem, err)
			}
			if gotRegion != region {
				t.Fatalf("region %d decoded as %d", region, gotRegion)
			}
			if len(payload) != len(words) {
				t.Fatalf("payload length %d, want %d", len(payload), len(words))
			}
			for i := range words {
				if payload[i] != words[i] {
					t.Fatalf("region %d elem %d: payload word %d is %#x, want %#x",
						region, elem, i, payload[i].Bits, words[i].Bits)
				}
			}
			if op, err := PacketOp(env); err != nil || op != OpPathSetup {
				t.Fatalf("PacketOp(envelope) = %v, %v; want path-setup", op, err)
			}
		}
	}
}

// TestEnvelopeErrors covers the malformed-envelope paths.
func TestEnvelopeErrors(t *testing.T) {
	pkt := []phit.ConfigWord{Header(OpNop, 0)}
	sel, err := RegionSelect(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseRegionSelect(nil); err == nil {
		t.Fatal("empty region select accepted")
	}
	if _, _, err := ParseRegionSelect(pkt); err == nil {
		t.Fatal("non-region header accepted as region select")
	}
	if _, _, err := ParseRegionSelect(sel[:1]); err == nil {
		t.Fatal("truncated region select accepted")
	}
	if _, _, err := ParseRegionSelect([]phit.ConfigWord{Header(OpRegion, 3), {}, {}, {}}); err == nil {
		t.Fatal("oversized region select accepted")
	}
	if _, _, err := DecodeEnvelope(sel); err == nil {
		t.Fatal("envelope with no payload accepted")
	}
	if _, err := Envelope(0, nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	nested, _ := Envelope(1, sel)
	if _, err := PacketOp(append(nested, pkt...)); err == nil {
		t.Fatal("nested region select accepted")
	}
}

// TestDecoderSkipsRegionSelect feeds a stream where two packets for
// different regions follow each other — the decoder must consume each
// region select without state damage and decode the enveloped packets
// normally: exactly the pairs addressed to the element's region-local ID
// apply, even across the region switch.
func TestDecoderSkipsRegionSelect(t *testing.T) {
	const wheel = 8
	sink := &recordSink{}
	dec := newElemDec(5, wheel, false, sink)

	mask := slots.Mask{Bits: 0x0F, Size: wheel}
	mk := func(region, elem int) []phit.ConfigWord {
		pkt := PathSetup{Mask: mask, Pairs: []Pair{{Element: elem, Spec: RouterSpec(1, 2)}}}
		words, err := pkt.Words()
		if err != nil {
			t.Fatal(err)
		}
		env, err := Envelope(region, words)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}

	var stream []phit.ConfigWord
	stream = append(stream, mk(0, 5)...)              // region 0, addressed to us
	stream = append(stream, mk(200, 5)...)            // 2-word region ID, also local ID 5
	stream = append(stream, mk(1, 7)...)              // someone else
	stream = append(stream, phit.ConfigWord{})        // idle gap
	stream = append(stream, Header(OpRegion, 2))      // stray envelope, then garbage IDs
	stream = append(stream, phit.NewConfigWord(0x05)) // would misparse as a header without the skip state
	stream = append(stream, phit.NewConfigWord(0x11))
	stream = append(stream, mk(3, 5)...)

	for _, w := range stream {
		dec.Feed(w)
	}
	if dec.Busy() {
		t.Fatal("decoder left mid-packet")
	}
	if got := len(sink.applies); got != 3 {
		t.Fatalf("element applied %d pair(s), want 3 (regions 0, 200 and 3)", got)
	}
}

// FuzzRegionEnvelope fuzzes the envelope codec: any byte string that
// parses as a region select must re-encode to the same region, and the
// decoder must never be left mid-packet by a well-formed enveloped
// packet built from the fuzzed region and element IDs.
func FuzzRegionEnvelope(f *testing.F) {
	// Seed corpus: the boundary cases of both ID spaces, plus a region
	// switch between consecutive packets.
	f.Add(uint16(0), uint8(0))
	f.Add(uint16(0), uint8(126))
	f.Add(uint16(0), uint8(PadElement))
	f.Add(uint16(127), uint8(126))
	f.Add(uint16(128), uint8(1))
	f.Add(uint16(MaxRegions-1), uint8(126))
	f.Fuzz(func(t *testing.T, regionRaw uint16, elemRaw uint8) {
		region := int(regionRaw) % MaxRegions
		elem := int(elemRaw) % MaxElements
		pkt := PathSetup{
			Mask:  slots.Mask{Bits: uint64(regionRaw) & 0xFF, Size: 8},
			Pairs: []Pair{{Element: elem, Spec: RouterSpec(int(elemRaw)%7, int(regionRaw)%7)}},
		}
		words, err := pkt.Words()
		if err != nil {
			t.Fatal(err)
		}
		env, err := Envelope(region, words)
		if err != nil {
			t.Fatal(err)
		}
		gotRegion, payload, err := DecodeEnvelope(env)
		if err != nil || gotRegion != region || len(payload) != len(words) {
			t.Fatalf("round trip: region %d -> %d, payload %d/%d words, err %v",
				region, gotRegion, len(payload), len(words), err)
		}
		// A region switch mid-stream: the same packet for region+1 mod
		// MaxRegions directly after; the decoder must stay in sync.
		env2, err := Envelope((region+1)%MaxRegions, words)
		if err != nil {
			t.Fatal(err)
		}
		dec := newElemDec(elem%127, 8, false, &recordSink{})
		for _, w := range append(append([]phit.ConfigWord{}, env...), env2...) {
			dec.Feed(w)
		}
		if dec.Busy() {
			t.Fatal("decoder left mid-packet after a region switch")
		}
	})
}

// streamBytes renders words as fuzz input: one byte per word, the high
// bit set for an idle (invalid) word.
func streamBytes(words []phit.ConfigWord) []byte {
	b := make([]byte, len(words))
	for i, w := range words {
		b[i] = w.Bits & 0x7F
		if !w.Valid {
			b[i] |= 0x80
		}
	}
	return b
}

// FuzzRegionDecoder checks the region decoder against the per-element
// decoders it replaces: on any word stream, one decoder with N members
// must complete the same effect (member, mask, spec, register write,
// read) at the same word index as N single-member decoders fed the same
// stream, the read responses the members' sinks give must agree, and
// every decoder must be mid-packet exactly when the region decoder is.
// The corpus is FuzzRegionEnvelope's, as enveloped streams with a write
// and a read behind them, plus copies with a word dropped or a bit
// flipped — what ConfigDrop and ConfigFlip do at the root.
func FuzzRegionDecoder(f *testing.F) {
	for _, c := range []struct {
		region uint16
		elem   uint8
	}{{0, 0}, {0, 126}, {0, PadElement}, {127, 126}, {128, 1}, {MaxRegions - 1, 126}} {
		elem := int(c.elem) % MaxElements
		pkt := PathSetup{
			Mask:  slots.Mask{Bits: uint64(c.region) & 0xFF, Size: 8},
			Pairs: []Pair{{Element: elem, Spec: RouterSpec(int(c.elem)%7, int(c.region)%7)}, {Element: 1, Spec: NISpec(true, true, 3)}},
		}
		words, err := pkt.Words()
		if err != nil {
			f.Fatal(err)
		}
		env, err := Envelope(int(c.region)%MaxRegions, words)
		if err != nil {
			f.Fatal(err)
		}
		wr, err := WriteRegPacket([]RegWrite{{Element: elem, Reg: 0x21, Value: 0x5A}, {Element: 1, Reg: 0x03, Value: 0x7F}})
		if err != nil {
			f.Fatal(err)
		}
		rd, err := ReadRegPacket(elem, 0x21)
		if err != nil {
			f.Fatal(err)
		}
		stream := append(append(append(env, phit.ConfigWord{}), wr...), rd...)
		seed := uint64(c.region)<<8 | uint64(c.elem)
		f.Add(streamBytes(stream), seed)
		for _, at := range []int{1, len(env) / 2, len(env) + 2} {
			dropped := append(append([]phit.ConfigWord{}, stream[:at]...), stream[at+1:]...)
			f.Add(streamBytes(dropped), seed)
			flipped := append([]phit.ConfigWord{}, stream...)
			flipped[at].Bits ^= 1 << (at % phit.ConfigWordBits)
			f.Add(streamBytes(flipped), seed)
		}
	}
	f.Fuzz(func(t *testing.T, stream []byte, seed uint64) {
		rng := sim.NewRNG(seed)
		wheel := []int{8, 16, 32, 64}[rng.Intn(4)]
		// N distinct members; the element the corpus addresses (seed's
		// low byte) is one of them.
		ids := map[int]bool{int(seed&0xFF) % MaxElements: true}
		for n := 1 + rng.Intn(12); len(ids) < n; {
			ids[rng.Intn(MaxElements)] = true
		}
		region := NewDecoder(wheel)
		var singles []*elemDec
		var regionSinks []*recordSink
		for id := 0; id < MaxElements; id++ {
			if !ids[id] {
				continue
			}
			forNI := rng.Intn(2) == 0
			if m := region.Add(id, forNI); m != len(singles) {
				t.Fatalf("member index %d, want %d", m, len(singles))
			}
			regionSinks = append(regionSinks, &recordSink{})
			singles = append(singles, newElemDec(id, wheel, forNI, &recordSink{}))
		}
		for i, b := range stream {
			w := phit.NewConfigWord(b & 0x7F)
			w.Valid = b&0x80 == 0
			e := region.Feed(w)
			var rresp phit.Response
			if e.Kind != NoEffect {
				rresp = e.Apply(regionSinks[e.Member])
			}
			for m, d := range singles {
				se := d.Decoder.Feed(w)
				if (se.Kind != NoEffect) != (e.Kind != NoEffect && e.Member == m) {
					t.Fatalf("word %d: member %d's own decoder completed %+v, the region decoder %+v", i, m, se, e)
				}
				if se.Kind != NoEffect {
					se.Member = m
					if se != e {
						t.Fatalf("word %d: member %d's own decoder completed %+v, the region decoder %+v", i, m, se, e)
					}
					if sresp := se.Apply(d.sink); sresp != rresp {
						t.Fatalf("word %d: member %d answered %+v alone, %+v in the region", i, m, sresp, rresp)
					}
				}
				if d.Busy() != region.Busy() {
					t.Fatalf("word %d: member %d busy %v, region decoder busy %v", i, m, d.Busy(), region.Busy())
				}
			}
		}
		for m, d := range singles {
			if got, want := d.sink.(*recordSink), regionSinks[m]; !reflect.DeepEqual(got, want) {
				t.Fatalf("member %d: alone %+v, in the region %+v", m, got, want)
			}
		}
	})
}
