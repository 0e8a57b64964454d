// Package slots implements TDM slot arithmetic and the slot tables at the
// heart of contention-free routing: the affected-slot masks carried by
// configuration packets (with the per-pair rotation that compensates the
// one-slot-per-hop pipeline advance), the slot-major router tables that
// name, for each slot, the input every output forwards, and the NI tables
// that govern packet departures and arrivals.
package slots

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// MaxTableSize bounds the slot-wheel size; masks are held in a single
// 64-bit word, which covers every configuration evaluated in the paper
// (8–32 slots).
const MaxTableSize = 64

// Mask is a set of slots out of a wheel of Size slots.
type Mask struct {
	Bits uint64
	Size int
}

// NewMask returns an empty mask over a wheel of size n.
func NewMask(n int) Mask {
	if n <= 0 || n > MaxTableSize {
		panic(fmt.Sprintf("slots: table size %d out of range (1..%d)", n, MaxTableSize))
	}
	return Mask{Size: n}
}

// MaskOf returns a mask over a wheel of size n with the given slots set.
func MaskOf(n int, slotList ...int) Mask {
	m := NewMask(n)
	for _, s := range slotList {
		m = m.With(s)
	}
	return m
}

// With returns the mask with slot s added.
func (m Mask) With(s int) Mask {
	if s < 0 || s >= m.Size {
		panic(fmt.Sprintf("slots: slot %d out of range for wheel of %d", s, m.Size))
	}
	m.Bits |= 1 << uint(s)
	return m
}

// Without returns the mask with slot s removed.
func (m Mask) Without(s int) Mask {
	if s < 0 || s >= m.Size {
		panic(fmt.Sprintf("slots: slot %d out of range for wheel of %d", s, m.Size))
	}
	m.Bits &^= 1 << uint(s)
	return m
}

// Has reports whether slot s is in the mask.
func (m Mask) Has(s int) bool {
	return s >= 0 && s < m.Size && m.Bits&(1<<uint(s)) != 0
}

// Count returns the number of slots in the mask.
func (m Mask) Count() int {
	n := 0
	for b := m.Bits; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// Slots lists the member slots in ascending order.
func (m Mask) Slots() []int {
	var out []int
	for s := 0; s < m.Size; s++ {
		if m.Has(s) {
			out = append(out, s)
		}
	}
	return out
}

// Empty reports whether no slot is set.
func (m Mask) Empty() bool { return m.Bits == 0 }

// MaxGap returns the worst circular wait, in slots, from any point of the
// wheel to the start of the next slot of the mask: the largest distance
// between cyclically consecutive slots. A single slot waits the whole
// wheel (Size) and a full mask one slot. An empty mask never serves; it
// reports math.MaxInt32, which compares worse than every reservation and
// still multiplies by a slot size without overflow.
func (m Mask) MaxGap() int {
	ss := m.Slots()
	if len(ss) == 0 {
		return math.MaxInt32
	}
	max := ss[0] + m.Size - ss[len(ss)-1]
	for i := 1; i < len(ss); i++ {
		if gap := ss[i] - ss[i-1]; gap > max {
			max = gap
		}
	}
	return max
}

// Union returns the union of two masks over the same wheel.
func (m Mask) Union(o Mask) Mask {
	m.mustMatch(o)
	m.Bits |= o.Bits
	return m
}

// Intersect returns the intersection of two masks over the same wheel.
func (m Mask) Intersect(o Mask) Mask {
	m.mustMatch(o)
	m.Bits &= o.Bits
	return m
}

// Overlaps reports whether the two masks share a slot.
func (m Mask) Overlaps(o Mask) bool {
	m.mustMatch(o)
	return m.Bits&o.Bits != 0
}

func (m Mask) mustMatch(o Mask) {
	if m.Size != o.Size {
		panic(fmt.Sprintf("slots: mixing wheels of %d and %d slots", m.Size, o.Size))
	}
}

// RotateDown returns the mask rotated k positions toward lower slot
// indices, with wrap-around: slot s becomes slot (s-k) mod Size. This is
// the rotation configuration decoders apply once per processed
// (element-ID, ports) pair — the pair for the element one hop closer to
// the source addresses slots one position lower, because data injected at
// slot s occupies slot s+h on the h-th link of its path.
func (m Mask) RotateDown(k int) Mask {
	n := uint(m.Size)
	k = ((k % m.Size) + m.Size) % m.Size
	if k == 0 {
		return m
	}
	low := m.Bits & ((1 << uint(k)) - 1) // slots 0..k-1 wrap to the top
	m.Bits = (m.Bits >> uint(k)) | (low << (n - uint(k)))
	m.Bits &= wheelMask(m.Size)
	return m
}

// RotateUp is the inverse of RotateDown: slot s becomes (s+k) mod Size.
// The allocator uses it to compute the mask a configuration packet must
// carry (the destination view) from the source injection slots.
func (m Mask) RotateUp(k int) Mask {
	k = ((k % m.Size) + m.Size) % m.Size
	return m.RotateDown(m.Size - k)
}

func wheelMask(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

// String renders the mask as bits, slot Size-1 first (as transmitted).
func (m Mask) String() string {
	var b strings.Builder
	for s := m.Size - 1; s >= 0; s-- {
		if m.Has(s) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// NoInput marks a router table entry with no connection: the output sends
// idle during that slot.
const NoInput = -1

// Slot tables are slot-major and bitset-packed, the way the hardware reads
// them: the router and NI bodies index one row by the current slot and
// find everything that slot drives in it. Selectors (input ports, NI
// channels) are held as value+1 (0 = none) in 8-bit lanes, and every
// output/duty additionally keeps a one-bit-per-slot occupancy word, so the
// questions the fast-forward machinery and the allocator ask — "is any
// slot of this output driven?", "is slot s driven?" — are single word
// operations instead of wheel scans. Every write goes through Set,
// SetSend or SetReceive, which keep rows and occupancy words in step.
const (
	selBits = 8
	selMask = 1<<selBits - 1
	// MaxSelector is the largest selector value a packed table lane can
	// hold (value+1 must fit in 8 bits). Both cfgproto limits
	// (MaxRouterPort, MaxNIChannel) are far below it.
	MaxSelector = selMask - 1
	// MaxOutputs is the largest output count a RouterTable holds: one
	// 8-bit lane per output in a slot's 64-bit row.
	MaxOutputs = 64 / selBits
)

// RouterTable is a daelite router's TDM schedule: for each slot and each
// output port, the input port the output forwards, or NoInput. Multicast is
// the natural consequence of two outputs naming the same input in the same
// slot.
type RouterTable struct {
	numOutputs int
	size       int
	rows       []routerRow // [slot]
	occ        []uint64    // [output] bit s set iff slot s is driven
}

// routerRow is one slot of a RouterTable: lane o of sel holds output o's
// input+1 (0 = idle), and drives has bit o set iff lane o is not idle.
type routerRow struct {
	sel    uint64
	drives uint8
}

// NewRouterTable returns an all-idle table for a router with the given
// output port count (at most MaxOutputs) over a wheel of size slots.
func NewRouterTable(numOutputs, size int) *RouterTable {
	if size <= 0 || size > MaxTableSize || numOutputs < 0 || numOutputs > MaxOutputs {
		panic(fmt.Sprintf("slots: router table of %d outputs x %d slots out of range (%d x %d)",
			numOutputs, size, MaxOutputs, MaxTableSize))
	}
	return &RouterTable{
		numOutputs: numOutputs,
		size:       size,
		rows:       make([]routerRow, size),
		occ:        make([]uint64, numOutputs),
	}
}

// Size returns the wheel size.
func (t *RouterTable) Size() int { return t.size }

// NumOutputs returns the number of output ports.
func (t *RouterTable) NumOutputs() int { return t.numOutputs }

// Set connects output port out to input port in during every slot in mask.
// in == NoInput tears the slots down.
func (t *RouterTable) Set(out int, mask Mask, in int) error {
	if out < 0 || out >= t.numOutputs {
		return fmt.Errorf("slots: output %d out of range (router has %d outputs)", out, t.numOutputs)
	}
	if mask.Size != t.size {
		return fmt.Errorf("slots: mask wheel %d != table wheel %d", mask.Size, t.size)
	}
	if in < NoInput || in > MaxSelector {
		return fmt.Errorf("slots: input %d out of packed range (%d..%d)", in, NoInput, MaxSelector)
	}
	m := mask.Bits & wheelMask(t.size)
	lane := uint(out) * selBits
	for b := m; b != 0; b &= b - 1 {
		row := &t.rows[bits.TrailingZeros64(b)]
		row.sel = row.sel&^(selMask<<lane) | uint64(in+1)<<lane
		if in == NoInput {
			row.drives &^= 1 << uint(out)
		} else {
			row.drives |= 1 << uint(out)
		}
	}
	if in == NoInput {
		t.occ[out] &^= m
	} else {
		t.occ[out] |= m
	}
	return nil
}

// Input returns the input feeding output out during slot s, or NoInput.
func (t *RouterTable) Input(out, slot int) int {
	return int(t.rows[slot].sel>>(uint(out)*selBits)&selMask) - 1
}

// Drives returns the outputs driven during slot s: bit o is set iff
// Input(o, s) != NoInput.
func (t *RouterTable) Drives(slot int) uint8 { return t.rows[slot].drives }

// Occupied reports whether output out is driven during slot s — one bit
// test against the packed occupancy word.
func (t *RouterTable) Occupied(out, slot int) bool {
	return t.occ[out]&(1<<uint(slot)) != 0
}

// OccupiedMask returns the mask of slots during which output out is
// driven. With the packed representation this is O(1): the occupancy
// word is maintained on every Set.
func (t *RouterTable) OccupiedMask(out int) Mask {
	return Mask{Bits: t.occ[out], Size: t.size}
}

// Clone returns a deep copy (used by tests and the online allocator's
// what-if evaluation).
func (t *RouterTable) Clone() *RouterTable {
	c := NewRouterTable(t.numOutputs, t.size)
	copy(c.rows, t.rows)
	copy(c.occ, t.occ)
	return c
}

// NoChannel marks an NI table field with no duty.
const NoChannel = -1

// NISlot is one slot's duty in an NI table. The NI link is full duplex
// (independent outgoing and incoming wires), so each slot carries an
// independent transmit duty and receive duty: the single table "governs
// both packet departures and arrivals" without the two competing for
// entries.
type NISlot struct {
	// TX is the channel injected during this slot, or NoChannel.
	TX int
	// RX is the channel arriving words are deposited into, or
	// NoChannel.
	RX int
}

// NITable is an NI's TDM schedule governing both packet departures and
// arrivals: one NISlot per slot, plus an occupancy word per duty.
type NITable struct {
	size         int
	slots        []NISlot // [slot]
	txOcc, rxOcc uint64   // bit s set iff slot s has the duty
}

// NewNITable returns an all-idle NI table over a wheel of size slots.
func NewNITable(size int) *NITable {
	if size <= 0 || size > MaxTableSize {
		panic(fmt.Sprintf("slots: table size %d out of range", size))
	}
	t := &NITable{size: size, slots: make([]NISlot, size)}
	for s := range t.slots {
		t.slots[s] = NISlot{TX: NoChannel, RX: NoChannel}
	}
	return t
}

// Size returns the wheel size.
func (t *NITable) Size() int { return t.size }

// setDuty assigns the receive (rx) or transmit duty of every slot in mask.
func (t *NITable) setDuty(mask Mask, channel int, rx bool) error {
	if mask.Size != t.size {
		return fmt.Errorf("slots: mask wheel %d != table wheel %d", mask.Size, t.size)
	}
	if channel < NoChannel || channel > MaxSelector {
		return fmt.Errorf("slots: channel %d out of packed range (%d..%d)", channel, NoChannel, MaxSelector)
	}
	m := mask.Bits & wheelMask(t.size)
	occ := &t.txOcc
	if rx {
		occ = &t.rxOcc
	}
	for b := m; b != 0; b &= b - 1 {
		e := &t.slots[bits.TrailingZeros64(b)]
		if rx {
			e.RX = channel
		} else {
			e.TX = channel
		}
	}
	if channel == NoChannel {
		*occ &^= m
	} else {
		*occ |= m
	}
	return nil
}

// SetSend assigns the transmit duty of every slot in mask (NoChannel
// clears).
func (t *NITable) SetSend(mask Mask, channel int) error {
	return t.setDuty(mask, channel, false)
}

// SetReceive assigns the receive duty of every slot in mask (NoChannel
// clears).
func (t *NITable) SetReceive(mask Mask, channel int) error {
	return t.setDuty(mask, channel, true)
}

// Entry returns the duties of slot s.
func (t *NITable) Entry(s int) NISlot { return t.slots[s] }

// Send returns the channel injected in slot s, if any.
func (t *NITable) Send(s int) (int, bool) {
	ch := t.slots[s].TX
	return ch, ch != NoChannel
}

// Receive returns the channel receiving in slot s, if any.
func (t *NITable) Receive(s int) (int, bool) {
	ch := t.slots[s].RX
	return ch, ch != NoChannel
}

// SendMask returns the slots with a transmit duty — O(1) off the packed
// occupancy word.
func (t *NITable) SendMask() Mask {
	return Mask{Bits: t.txOcc, Size: t.size}
}

// ReceiveMask returns the slots with a receive duty — O(1) off the
// packed occupancy word.
func (t *NITable) ReceiveMask() Mask {
	return Mask{Bits: t.rxOcc, Size: t.size}
}

// OccupiedMask returns the slots with any duty.
func (t *NITable) OccupiedMask() Mask {
	return Mask{Bits: t.txOcc | t.rxOcc, Size: t.size}
}

// Clone returns a deep copy.
func (t *NITable) Clone() *NITable {
	c := NewNITable(t.size)
	copy(c.slots, t.slots)
	c.txOcc, c.rxOcc = t.txOcc, t.rxOcc
	return c
}

// SlotOfCycle returns the slot index on the wheel at the given cycle for a
// slot of slotWords words: slot = (cycle / slotWords) mod size.
func SlotOfCycle(cycle uint64, slotWords, size int) int {
	return int((cycle / uint64(slotWords)) % uint64(size))
}

// CycleOfSlot returns the first cycle at or after 'from' at which the wheel
// is at the start of slot s.
func CycleOfSlot(from uint64, s, slotWords, size int) uint64 {
	period := uint64(slotWords * size)
	base := (from / period) * period
	target := base + uint64(s*slotWords)
	for target < from {
		target += period
	}
	return target
}
