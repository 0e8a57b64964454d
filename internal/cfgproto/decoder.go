package cfgproto

import (
	"fmt"

	"daelite/internal/phit"
	"daelite/internal/slots"
)

// Sink receives the decoded effects of configuration packets addressed to
// one element. Router and NI configuration submodules implement it.
type Sink interface {
	// ApplySlots updates the element's slot table: the slots in mask get
	// the duty described by spec. The mask is already rotated for this
	// element's position in the packet.
	ApplySlots(mask slots.Mask, spec PortSpec)
	// WriteReg writes a 7-bit value to a register.
	WriteReg(reg, value uint8)
	// ReadReg reads a register for the reverse path; ok=false produces
	// no response (reserved selects).
	ReadReg(reg uint8) (value uint8, ok bool)
}

// EffectKind says what a decoded Effect does to its element.
type EffectKind uint8

const (
	// NoEffect: the word completed nothing addressed to a member.
	NoEffect EffectKind = iota
	// SlotsEffect: a path set-up pair (Mask, Spec).
	SlotsEffect
	// WriteEffect: a register write (Reg, Value).
	WriteEffect
	// ReadEffect: a register read (Reg) answered on the reverse path.
	ReadEffect
)

// Effect is what one configuration word completes on one member element:
// a slot-table update, a register write or a register read.
type Effect struct {
	Kind   EffectKind
	Member int        // index Decoder.Add returned for the element
	Mask   slots.Mask // SlotsEffect: rotated by the pair's index
	Spec   PortSpec   // SlotsEffect: in the member's (router or NI) layout
	Reg    uint8      // WriteEffect, ReadEffect
	Value  uint8      // WriteEffect
}

// Apply performs e on the element's sink and returns the reverse-path
// response a read produces (invalid for anything else, and for a read of
// a reserved select).
func (e Effect) Apply(s Sink) phit.Response {
	switch e.Kind {
	case SlotsEffect:
		s.ApplySlots(e.Mask, e.Spec)
	case WriteEffect:
		s.WriteReg(e.Reg, e.Value)
	case ReadEffect:
		if v, ok := s.ReadReg(e.Reg); ok {
			return phit.Response{Valid: true, Bits: v & 0x7F}
		}
	}
	return phit.Response{}
}

// Decoder is a configuration region's state machine. The forward tree
// broadcasts every word to every element of the region, and each
// element's decoder parses the whole stream, rotates the mask once per
// pair and acts only on the pairs that carry its own ID — so all of them
// walk through the same states, shifted by their tree depth. A Decoder
// parses the stream once for all its members and dispatches each
// completed pair, triple or read by element ID. With one member it is the
// hardware's per-element decoder.
type Decoder struct {
	wheel int
	// member maps an element ID to its member index + 1 (0: no member);
	// forNI says, by member, to read port specs in the NI layout, since
	// routers and NIs have distinct configuration submodules.
	member [MaxElements]int32
	forNI  []bool

	state     decodeState
	remaining int // pairs/triples left in the packet
	maskBuf   []phit.ConfigWord
	mask      slots.Mask // the packet's mask as transmitted
	pair      int        // pairs completed in the packet: the mask's rotation
	cur       int32      // member + 1 the current pair/triple/read addresses
	curReg    uint8
}

type decodeState int

const (
	stIdle decodeState = iota
	stMask
	stPairID
	stPairSpec
	stTripleID
	stTripleReg
	stTripleVal
	stReadID
	stReadReg
	stSkip
)

// NewDecoder returns a decoder with no members for a wheel of the given
// size.
func NewDecoder(wheel int) *Decoder { return &Decoder{wheel: wheel} }

// Add makes the element with the given ID a member and returns its
// member index; forNI selects the NI port-spec layout. IDs are unique
// within a region.
func (d *Decoder) Add(id int, forNI bool) int {
	if id < 0 || id >= MaxElements {
		panic(fmt.Sprintf("cfgproto: element ID %d out of range", id))
	}
	if d.member[id] != 0 {
		panic(fmt.Sprintf("cfgproto: element ID %d added twice", id))
	}
	d.forNI = append(d.forNI, forNI)
	d.member[id] = int32(len(d.forNI))
	return len(d.forNI) - 1
}

// Busy reports whether the decoder is mid-packet.
func (d *Decoder) Busy() bool { return d.state != stIdle }

// Feed consumes one configuration word and returns the effect it
// completes on a member, if any (Kind NoEffect otherwise).
func (d *Decoder) Feed(w phit.ConfigWord) Effect {
	if !w.Valid {
		return Effect{}
	}
	switch d.state {
	case stIdle:
		op, count := ParseHeader(w)
		d.remaining = count
		switch op {
		case OpPathSetup:
			d.maskBuf = d.maskBuf[:0]
			d.state = stMask
		case OpWriteReg:
			if count > 0 {
				d.state = stTripleID
			}
		case OpReadReg:
			if count > 0 {
				d.state = stReadID
			}
		case OpRegion:
			// Region-select envelope: element IDs are region-local, so
			// the region-ID words carry no information for an element —
			// consume them and resume at the enveloped packet's header.
			if count > 0 {
				d.state = stSkip
			}
		default: // OpNop and unknown opcodes are skipped
		}
	case stMask:
		d.maskBuf = append(d.maskBuf, w)
		if len(d.maskBuf) == MaskWords(d.wheel) {
			m, err := DecodeMask(d.maskBuf, d.wheel)
			if err != nil {
				// Malformed masks abort the packet; real hardware
				// would raise an error flag. The packet length is
				// still honoured via remaining pairs.
				m = slots.NewMask(d.wheel)
			}
			d.mask, d.pair = m, 0
			if d.remaining > 0 {
				d.state = stPairID
			} else {
				d.state = stIdle
			}
		}
	case stPairID:
		d.cur = d.member[w.Bits&0x7F]
		d.state = stPairSpec
	case stPairSpec:
		var e Effect
		if d.cur != 0 {
			// Every element rotates after every pair, matched or not,
			// so an element's mask is rotated by the pair's index.
			m := int(d.cur - 1)
			spec := DecodeRouterSpec(w)
			if d.forNI[m] {
				spec = DecodeNISpec(w)
			}
			e = Effect{Kind: SlotsEffect, Member: m, Mask: d.mask.RotateDown(d.pair), Spec: spec}
		}
		d.pair++
		d.remaining--
		if d.remaining > 0 {
			d.state = stPairID
		} else {
			d.state = stIdle
		}
		return e
	case stTripleID:
		d.cur = d.member[w.Bits&0x7F]
		d.state = stTripleReg
	case stTripleReg:
		d.curReg = w.Bits
		d.state = stTripleVal
	case stTripleVal:
		d.remaining--
		if d.remaining > 0 {
			d.state = stTripleID
		} else {
			d.state = stIdle
		}
		if d.cur != 0 {
			return Effect{Kind: WriteEffect, Member: int(d.cur - 1), Reg: d.curReg, Value: w.Bits}
		}
	case stReadID:
		d.cur = d.member[w.Bits&0x7F]
		d.state = stReadReg
	case stReadReg:
		d.state = stIdle
		if d.cur != 0 {
			return Effect{Kind: ReadEffect, Member: int(d.cur - 1), Reg: w.Bits}
		}
	case stSkip:
		d.remaining--
		if d.remaining <= 0 {
			d.state = stIdle
		}
	}
	return Effect{}
}
