// Package cfgproto defines the daelite configuration wire format and the
// decoder state machine embedded in every router and NI configuration
// submodule.
//
// Configuration packets are sequences of 7-bit words transmitted one per
// cycle over the configuration tree's forward (broadcast) links. A path
// set-up packet consists of:
//
//	header | slot-mask words | (element-ID, port-spec) pairs ...
//
// The header carries a 3-bit opcode and a 4-bit pair count, so every
// element knows the exact packet length (the number of slot-mask words is
// ceil(wheel/7) and is a static network parameter). The pair list begins at
// the *destination* NI and walks backwards to the source, so downstream
// elements are configured before upstream ones start sending. Every element
// rotates its copy of the affected-slot mask down by one position after each
// processed pair, which compensates the one-slot-per-hop pipeline advance of
// the TDM wheel (see Fig. 6 of the paper). Tear-down reuses the set-up
// opcode with a "no input"/"disable" port spec.
//
// The host IP writes 32-bit words to its configuration module, which
// serializes them into 7-bit symbols; 0-padding at the tail of the last
// 32-bit word is permitted and ignored by length-aware decoders.
package cfgproto

import (
	"fmt"

	"daelite/internal/phit"
	"daelite/internal/slots"
)

// Op is a configuration packet opcode.
type Op uint8

const (
	// OpNop is ignored by all elements.
	OpNop Op = iota
	// OpPathSetup sets up or tears down path segments: the packet body
	// is the affected-slot mask followed by (ID, port-spec) pairs.
	OpPathSetup
	// OpWriteReg writes element registers: (ID, reg, value) triples.
	// Used to initialize credit counters, set connection state flags and
	// configure adjacent buses through the NI shell.
	OpWriteReg
	// OpReadReg reads one element register; the element answers on the
	// reverse (converging) path. At most one read is outstanding.
	OpReadReg
	// OpRegion is the region-select envelope header: its count field
	// gives the number of following region-ID words (base-128,
	// most-significant first). A region select prefixes a packet bound
	// for one configuration region of a partitioned platform; elements
	// skip it (their IDs are region-local), and the host-side region
	// router uses it to steer the packet onto the right tree.
	OpRegion
	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpPathSetup:
		return "path-setup"
	case OpWriteReg:
		return "write-reg"
	case OpReadReg:
		return "read-reg"
	case OpRegion:
		return "region-select"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

const (
	// MaxPairs is the largest pair/triple count encodable in a header
	// (4 bits). Larger jobs are split into several packets; the protocol
	// explicitly supports independent path segments.
	MaxPairs = 15
	// MaxElements is the largest element ID + 1 (7-bit IDs).
	MaxElements = 128
	// PadElement is a reserved ID matching no element. Padding pairs
	// addressed to it burn one mask rotation each, which is how path
	// set-up packets step across pipelined (mesochronous/long) links
	// whose slot advance exceeds one.
	PadElement = 127
	// NoInputPort is the router input-port code meaning "stop driving
	// this output in the affected slots" (tear-down).
	NoInputPort = 7
	// MaxRouterPort is the largest router port index encodable (3
	// bits, 7 reserved for NoInputPort), matching the paper's arity-7
	// routers.
	MaxRouterPort = 6
	// MaxNIChannel is the largest NI channel index encodable (5 bits).
	MaxNIChannel = 31
)

// Header packs op and count into one 7-bit word.
func Header(op Op, count int) phit.ConfigWord {
	if op >= numOps {
		panic(fmt.Sprintf("cfgproto: bad opcode %d", op))
	}
	if count < 0 || count > MaxPairs {
		panic(fmt.Sprintf("cfgproto: pair count %d out of range", count))
	}
	return phit.NewConfigWord(uint8(op)<<4 | uint8(count))
}

// ParseHeader splits a header word.
func ParseHeader(w phit.ConfigWord) (Op, int) {
	return Op(w.Bits >> 4), int(w.Bits & 0x0F)
}

// MaskWords returns the number of 7-bit words needed to transmit a slot
// mask over a wheel of the given size.
func MaskWords(wheel int) int { return (wheel + 6) / 7 }

// EncodeMask serializes a slot mask into MaskWords(m.Size) words,
// transmitted most-significant group first: for an 8-slot wheel the first
// word carries slot 7 in its LSB and the second word carries slots 6..0,
// reproducing the Fig. 6 layout.
func EncodeMask(m slots.Mask) []phit.ConfigWord { return appendMask(nil, m) }

func appendMask(dst []phit.ConfigWord, m slots.Mask) []phit.ConfigWord {
	n := MaskWords(m.Size)
	for i := 0; i < n; i++ {
		shift := uint(7 * (n - 1 - i))
		dst = append(dst, phit.NewConfigWord(uint8((m.Bits>>shift)&0x7F)))
	}
	return dst
}

// DecodeMask reassembles a slot mask from its transmitted words.
func DecodeMask(words []phit.ConfigWord, wheel int) (slots.Mask, error) {
	if len(words) != MaskWords(wheel) {
		return slots.Mask{}, fmt.Errorf("cfgproto: %d mask words for wheel %d, want %d", len(words), wheel, MaskWords(wheel))
	}
	var bits uint64
	for _, w := range words {
		bits = bits<<7 | uint64(w.Bits&0x7F)
	}
	max := uint64(1)<<uint(wheel) - 1
	if wheel == 64 {
		max = ^uint64(0)
	}
	if bits&^max != 0 {
		return slots.Mask{}, fmt.Errorf("cfgproto: mask %#x has bits beyond wheel of %d", bits, wheel)
	}
	return slots.Mask{Bits: bits, Size: wheel}, nil
}

// PortSpec is the second word of a path set-up pair: the slot-table update
// an element applies to the slots currently marked in its rotated mask.
type PortSpec struct {
	// ForNI selects the NI layout (direction + enable + channel) rather
	// than the router layout (input + output port).
	ForNI bool

	// Router layout.
	In, Out int // In == slots.NoInput encodes tear-down

	// NI layout.
	Send    bool // true: TX slots for Channel; false: RX slots
	Enable  bool // false: tear-down (slots become idle)
	Channel int
}

// RouterSpec builds a router port spec; in == slots.NoInput tears down.
func RouterSpec(in, out int) PortSpec {
	return PortSpec{In: in, Out: out}
}

// NISpec builds an NI port spec.
func NISpec(send, enable bool, channel int) PortSpec {
	return PortSpec{ForNI: true, Send: send, Enable: enable, Channel: channel}
}

// Encode packs the spec into one 7-bit word.
func (p PortSpec) Encode() (phit.ConfigWord, error) {
	if p.ForNI {
		if p.Channel < 0 || p.Channel > MaxNIChannel {
			return phit.ConfigWord{}, fmt.Errorf("cfgproto: NI channel %d out of range", p.Channel)
		}
		var b uint8
		if p.Send {
			b |= 1 << 6
		}
		if p.Enable {
			b |= 1 << 5
		}
		b |= uint8(p.Channel)
		return phit.NewConfigWord(b), nil
	}
	in := p.In
	if in == slots.NoInput {
		in = NoInputPort
	}
	if in < 0 || in > NoInputPort {
		return phit.ConfigWord{}, fmt.Errorf("cfgproto: router input port %d out of range", p.In)
	}
	if p.Out < 0 || p.Out > MaxRouterPort {
		return phit.ConfigWord{}, fmt.Errorf("cfgproto: router output port %d out of range", p.Out)
	}
	return phit.NewConfigWord(uint8(in)<<3 | uint8(p.Out)), nil
}

// DecodeRouterSpec interprets a pair word with the router layout.
func DecodeRouterSpec(w phit.ConfigWord) PortSpec {
	in := int(w.Bits >> 3 & 0x7)
	if in == NoInputPort {
		in = slots.NoInput
	}
	return PortSpec{In: in, Out: int(w.Bits & 0x7)}
}

// DecodeNISpec interprets a pair word with the NI layout.
func DecodeNISpec(w phit.ConfigWord) PortSpec {
	return PortSpec{
		ForNI:   true,
		Send:    w.Bits&(1<<6) != 0,
		Enable:  w.Bits&(1<<5) != 0,
		Channel: int(w.Bits & 0x1F),
	}
}

// Pair is one (element, spec) step of a path segment, listed
// destination-first.
type Pair struct {
	Element int // element ID (0..127)
	Spec    PortSpec
}

// PathSetup is a complete path set-up (or tear-down) packet.
type PathSetup struct {
	// Mask holds the affected slots as seen by the FIRST pair's element
	// (the destination end of the segment); each later pair applies the
	// mask rotated down by its index.
	Mask  slots.Mask
	Pairs []Pair
}

// Words serializes the packet.
func (p PathSetup) Words() ([]phit.ConfigWord, error) { return p.AppendWords(nil) }

// AppendWords serializes the packet onto dst.
func (p PathSetup) AppendWords(dst []phit.ConfigWord) ([]phit.ConfigWord, error) {
	if len(p.Pairs) == 0 || len(p.Pairs) > MaxPairs {
		return dst, fmt.Errorf("cfgproto: %d pairs out of range 1..%d", len(p.Pairs), MaxPairs)
	}
	n := len(dst)
	dst = appendMask(append(dst, Header(OpPathSetup, len(p.Pairs))), p.Mask)
	for _, pr := range p.Pairs {
		if pr.Element < 0 || pr.Element >= MaxElements {
			return dst[:n], fmt.Errorf("cfgproto: element ID %d out of range", pr.Element)
		}
		sw, err := pr.Spec.Encode()
		if err != nil {
			return dst[:n], err
		}
		dst = append(dst, phit.NewConfigWord(uint8(pr.Element)), sw)
	}
	return dst, nil
}

// RegWrite is one register write.
type RegWrite struct {
	Element int
	Reg     uint8 // 7-bit register select
	Value   uint8 // 7-bit value
}

// WriteRegPacket serializes register writes (up to MaxPairs per packet).
func WriteRegPacket(writes []RegWrite) ([]phit.ConfigWord, error) {
	return AppendWriteRegPacket(nil, writes)
}

// AppendWriteRegPacket serializes register writes onto dst.
func AppendWriteRegPacket(dst []phit.ConfigWord, writes []RegWrite) ([]phit.ConfigWord, error) {
	if len(writes) == 0 || len(writes) > MaxPairs {
		return dst, fmt.Errorf("cfgproto: %d writes out of range 1..%d", len(writes), MaxPairs)
	}
	n := len(dst)
	dst = append(dst, Header(OpWriteReg, len(writes)))
	for _, w := range writes {
		if w.Element < 0 || w.Element >= MaxElements {
			return dst[:n], fmt.Errorf("cfgproto: element ID %d out of range", w.Element)
		}
		dst = append(dst,
			phit.NewConfigWord(uint8(w.Element)),
			phit.NewConfigWord(w.Reg),
			phit.NewConfigWord(w.Value))
	}
	return dst, nil
}

// ReadRegPacket serializes a single register read.
func ReadRegPacket(element int, reg uint8) ([]phit.ConfigWord, error) {
	if element < 0 || element >= MaxElements {
		return nil, fmt.Errorf("cfgproto: element ID %d out of range", element)
	}
	return []phit.ConfigWord{
		Header(OpReadReg, 1),
		phit.NewConfigWord(uint8(element)),
		phit.NewConfigWord(reg),
	}, nil
}

// Register select encoding shared by NIs (routers only implement slot-table
// updates): the top two bits select the register class, the low five bits
// the channel.
const (
	// RegFlags is the per-channel connection state flags register.
	RegFlags uint8 = 0 << 5
	// RegCredit is the per-channel source credit counter (remote buffer
	// space). Written at set-up to the destination queue capacity.
	RegCredit uint8 = 1 << 5
	// RegDelivered is the per-channel destination counter of delivered
	// words not yet returned as credits. Read-back support.
	RegDelivered uint8 = 2 << 5
	// RegBus addresses the adjacent bus's configuration port through the
	// NI shell; successive writes are deserialized into wide words.
	RegBus uint8 = 3 << 5
)

// RegSelect builds a register select for a channel.
func RegSelect(class uint8, channel int) uint8 {
	return class | uint8(channel&0x1F)
}

// RegClass extracts the register class from a select.
func RegClass(reg uint8) uint8 { return reg & (3 << 5) }

// RegChannel extracts the channel from a select.
func RegChannel(reg uint8) int { return int(reg & 0x1F) }

// Flag bits in RegFlags.
const (
	// FlagOpen marks the channel as configured and usable.
	FlagOpen uint8 = 1 << 0
	// FlagMulticast disables end-to-end flow control on the channel
	// (the source has a single credit counter, unusable with several
	// destinations).
	FlagMulticast uint8 = 1 << 1
)

// Pack32 packs 7-bit config words into 32-bit host words, four symbols per
// word, most-significant symbol first, zero-padded at the tail. This is the
// format the host IP writes to its configuration module.
func Pack32(words []phit.ConfigWord) []uint32 {
	var out []uint32
	for i := 0; i < len(words); i += 4 {
		var v uint32
		for j := 0; j < 4; j++ {
			v <<= 7
			if i+j < len(words) {
				v |= uint32(words[i+j].Bits & 0x7F)
			}
		}
		out = append(out, v)
	}
	return out
}

// Unpack32 recovers count 7-bit words from packed 32-bit host words.
func Unpack32(packed []uint32, count int) ([]phit.ConfigWord, error) {
	if count < 0 || count > len(packed)*4 {
		return nil, fmt.Errorf("cfgproto: cannot unpack %d words from %d uint32s", count, len(packed))
	}
	out := make([]phit.ConfigWord, 0, count)
	for i := 0; i < count; i++ {
		v := packed[i/4]
		shift := uint(7 * (3 - i%4))
		out = append(out, phit.NewConfigWord(uint8(v>>shift&0x7F)))
	}
	return out, nil
}
