package cfgproto

import (
	"fmt"

	"daelite/internal/phit"
)

// Region-addressed envelopes break the 7-bit element-ID ceiling: a
// platform larger than 127 elements is partitioned into configuration
// regions, each with its own broadcast tree and a region-local element-ID
// space. A packet bound for one region is wrapped in a region select —
//
//	Header(OpRegion, n) | region-ID word ... (n words, base-128, MSB first)
//
// — followed by the ordinary packet. The envelope travels on the selected
// region's forward tree like any other words; elements skip it (see the
// decoder's region-skip state) and then decode the packet against their
// region-local IDs. Single-region platforms never emit envelopes, so the
// pre-region wire format is preserved bit for bit.

const (
	// MaxRegionWords is the largest region-ID word count encodable in a
	// region-select header; two base-128 words address 16384 regions,
	// over two million elements.
	MaxRegionWords = 2
	// MaxRegions is the number of addressable configuration regions.
	MaxRegions = 1 << (7 * MaxRegionWords)
)

// RegionSelectWords returns the number of ID words a region select for
// the given region carries (excluding its header word).
func RegionSelectWords(region int) int {
	if region < 128 {
		return 1
	}
	return 2
}

// RegionSelect builds the envelope prefix selecting a region.
func RegionSelect(region int) ([]phit.ConfigWord, error) { return appendRegionSelect(nil, region) }

func appendRegionSelect(dst []phit.ConfigWord, region int) ([]phit.ConfigWord, error) {
	if region < 0 || region >= MaxRegions {
		return dst, fmt.Errorf("cfgproto: region %d out of range 0..%d", region, MaxRegions-1)
	}
	n := RegionSelectWords(region)
	dst = append(dst, Header(OpRegion, n))
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, phit.NewConfigWord(uint8(region>>(7*i))&0x7F))
	}
	return dst, nil
}

// ParseRegionSelect decodes a region select at the head of words,
// returning the region and the number of words consumed. It fails when
// the first word is not an OpRegion header or the ID words are missing.
func ParseRegionSelect(words []phit.ConfigWord) (region, consumed int, err error) {
	if len(words) == 0 {
		return 0, 0, fmt.Errorf("cfgproto: empty region select")
	}
	op, n := ParseHeader(words[0])
	if op != OpRegion {
		return 0, 0, fmt.Errorf("cfgproto: expected region select, got %v header", op)
	}
	if n < 1 || n > MaxRegionWords {
		return 0, 0, fmt.Errorf("cfgproto: region select with %d ID words (want 1..%d)", n, MaxRegionWords)
	}
	if len(words) < 1+n {
		return 0, 0, fmt.Errorf("cfgproto: truncated region select (%d of %d ID words)", len(words)-1, n)
	}
	for i := 1; i <= n; i++ {
		region = region<<7 | int(words[i].Bits&0x7F)
	}
	return region, 1 + n, nil
}

// Envelope wraps a complete packet in a region select.
func Envelope(region int, packet []phit.ConfigWord) ([]phit.ConfigWord, error) {
	return AppendEnvelope(nil, region, packet)
}

// AppendEnvelope appends packet, wrapped in a region select, to dst.
func AppendEnvelope(dst []phit.ConfigWord, region int, packet []phit.ConfigWord) ([]phit.ConfigWord, error) {
	if len(packet) == 0 {
		return dst, fmt.Errorf("cfgproto: empty packet")
	}
	dst, err := appendRegionSelect(dst, region)
	if err != nil {
		return dst, err
	}
	return append(dst, packet...), nil
}

// DecodeEnvelope splits an enveloped packet into its region and payload.
func DecodeEnvelope(words []phit.ConfigWord) (region int, packet []phit.ConfigWord, err error) {
	region, consumed, err := ParseRegionSelect(words)
	if err != nil {
		return 0, nil, err
	}
	if len(words) == consumed {
		return 0, nil, fmt.Errorf("cfgproto: envelope with no payload")
	}
	return region, words[consumed:], nil
}

// PacketOp returns the effective opcode of a packet, looking through a
// leading region select if present. The configuration module uses it to
// classify staged packets (a read stays a read inside an envelope).
func PacketOp(words []phit.ConfigWord) (Op, error) {
	if len(words) == 0 {
		return OpNop, fmt.Errorf("cfgproto: empty packet")
	}
	op, _ := ParseHeader(words[0])
	if op != OpRegion {
		return op, nil
	}
	_, consumed, err := ParseRegionSelect(words)
	if err != nil {
		return OpNop, err
	}
	if len(words) <= consumed {
		return OpNop, fmt.Errorf("cfgproto: envelope with no payload")
	}
	op, _ = ParseHeader(words[consumed])
	if op == OpRegion {
		return OpNop, fmt.Errorf("cfgproto: nested region select")
	}
	return op, nil
}
