// Package phit defines the physical-digit (phit) types that travel on
// daelite links: payload words with sideband credit wires on the data
// network, and 7-bit configuration symbols on the configuration tree.
//
// A daelite data link is WordBits wide for payload, plus CreditWires
// sideband bits that carry end-to-end credits for the channel flowing in the
// opposite direction, plus a valid bit. Routers treat payload and credit
// bits identically: both are blindly switched by the slot table.
//
// A Flit is those hardware bits plus one 32-bit simulation-only handle,
// Ref. The provenance of a word (its Tag: channel, sequence number,
// submission and injection cycles) does not travel on the wire: the
// injecting NI records it in the simulator's provenance arena
// (sim.Simulator.Stamp) and the receiving NI resolves the handle once,
// into the delivery it hands its IP.
package phit

import "fmt"

const (
	// WordBits is the payload width of a data link in bits.
	WordBits = 32
	// CreditWires is the number of sideband wires carrying credits. With
	// a 2-word slot, 3 wires transfer a 6-bit credit value per slot.
	CreditWires = 3
	// ConfigWordBits is the width of a configuration link and of one
	// configuration word. 7 bits suffice for networks with up to 64
	// elements, routers of arity 7 and end-to-end buffers of 63 words.
	ConfigWordBits = 7
	// MaxCreditValue is the largest credit count transferable in one
	// slot (6 bits over a 2-word slot).
	MaxCreditValue = 1<<(CreditWires*2) - 1
)

// Word is one payload word.
type Word uint32

// Flit is the value present on a data link during one cycle: one payload
// word plus the sideband credit bits, with a validity flag, and the
// simulation-only handle of the word's provenance. The zero Flit is an
// idle link.
type Flit struct {
	// Data is the payload word.
	Data Word
	// Valid is true when the link carries data this cycle.
	Valid bool
	// Credit carries CreditWires bits of piggybacked credit information
	// for the opposite-direction channel of the connection.
	Credit uint8
	// CreditValid marks the credit bits as meaningful. An NI drives
	// them for every word of a slot whose credit value is non-zero,
	// whether or not the slot carries payload, and not at all in a slot
	// returning zero credits: an idle credit return is zeros on the
	// wires, as in the hardware.
	CreditValid bool

	// Ref is the handle of the word's Tag in the simulator's provenance
	// arena, stamped by the injecting NI; 0 means no provenance. It is
	// simulation-only: no hardware model inspects it, and routers copy
	// it along with the bits they switch.
	Ref uint32
}

// Tag is the simulation-side provenance of a payload word, kept in the
// simulator's provenance arena and handed to the IP with the delivery.
type Tag struct {
	// Channel is the global channel ID the flit belongs to.
	Channel int
	// Seq is the per-channel sequence number of the word.
	Seq uint64
	// SubmitCycle is the cycle the IP handed the word to its NI; the
	// difference to InjectCycle is queueing plus scheduling latency.
	SubmitCycle uint64
	// InjectCycle is the cycle the source NI drove the flit on its link.
	InjectCycle uint64
}

// Idle returns the value of an idle link.
func Idle() Flit { return Flit{} }

// IsIdle reports whether f is the idle flit.
func (f Flit) IsIdle() bool { return f == Flit{} }

// String renders a flit compactly for traces.
func (f Flit) String() string {
	if !f.Valid && !f.CreditValid {
		return "idle"
	}
	s := ""
	if f.Valid {
		s = fmt.Sprintf("d=%08x ref=%d", uint32(f.Data), f.Ref)
	}
	if f.CreditValid {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("cr=%d", f.Credit)
	}
	return s
}

// ConfigWord is one 7-bit symbol on a configuration link. Valid marks
// cycles that carry a symbol.
type ConfigWord struct {
	Valid bool
	Bits  uint8 // low 7 bits significant
}

// NewConfigWord returns a valid configuration word holding the low 7 bits
// of v.
func NewConfigWord(v uint8) ConfigWord {
	return ConfigWord{Valid: true, Bits: v & 0x7F}
}

// String renders a configuration word for traces.
func (w ConfigWord) String() string {
	if !w.Valid {
		return "idle"
	}
	return fmt.Sprintf("%#02x", w.Bits)
}

// Response is the value on the converging reverse configuration path. Only
// one request is outstanding at a time, so nodes merge children by OR.
type Response struct {
	Valid bool
	Bits  uint8 // low 7 bits significant
}

// Merge combines two reverse-path values. With the one-outstanding-request
// policy at most one input is valid; Merge is an OR so a violation of that
// policy corrupts data rather than losing it, matching hardware.
func Merge(a, b Response) Response {
	return Response{Valid: a.Valid || b.Valid, Bits: (a.Bits | b.Bits) & 0x7F}
}
