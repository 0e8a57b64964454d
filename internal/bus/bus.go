// Package bus implements the lightweight local buses adjacent to the
// daelite network and the shells that serialize bus transactions into
// network messages (the platform of Fig. 3). IPs are connected to local
// buses which only (de)multiplex transactions to and from different
// network connections; network shells serialize these requests into
// network messages.
//
// The transaction format on a channel is deliberately simple (a DTL-like
// subset): a command word, an address word, then the payload.
//
//	cmd  = kind<<31 | length          (kind 1 = write, 0 = read)
//	addr = byte address
//	data = length words (writes only)
//
// Read responses travel on the reverse channel of the connection as plain
// data words. The bus address map (which 4 KiB page belongs to which
// channel) is itself configurable through the NI shell's RegBus interface:
// one 28-bit configuration word per mapping, channel<<24 | page.
package bus

import (
	"fmt"

	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/sim"
)

// Kind distinguishes transaction kinds.
type Kind int

const (
	// Read requests length words starting at Addr.
	Read Kind = iota
	// Write carries length words to store at Addr.
	Write
)

// Transaction is one bus operation issued by an IP.
type Transaction struct {
	Kind Kind
	Addr uint32
	Data []phit.Word // words to write, or space hint for reads (len used)
}

// encode serializes the request into words.
func (t Transaction) encode() ([]phit.Word, error) {
	if len(t.Data) == 0 || len(t.Data) > 0x7FFF {
		return nil, fmt.Errorf("bus: transaction length %d out of range", len(t.Data))
	}
	cmd := phit.Word(len(t.Data))
	if t.Kind == Write {
		cmd |= 1 << 31
	}
	words := []phit.Word{cmd, phit.Word(t.Addr)}
	if t.Kind == Write {
		words = append(words, t.Data...)
	}
	return words, nil
}

// Target is the memory-mapped IP behind a target shell.
type Target interface {
	// ReadWord returns the word at the byte address.
	ReadWord(addr uint32) phit.Word
	// WriteWord stores a word at the byte address.
	WriteWord(addr uint32, w phit.Word)
}

// Memory is a simple word-addressable Target.
type Memory struct {
	words map[uint32]phit.Word
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{words: make(map[uint32]phit.Word)} }

// ReadWord implements Target.
func (m *Memory) ReadWord(addr uint32) phit.Word { return m.words[addr&^3] }

// WriteWord implements Target.
func (m *Memory) WriteWord(addr uint32, w phit.Word) { m.words[addr&^3] = w }

// AddressMap maps 4 KiB pages to NI channels.
type AddressMap struct {
	pages map[uint32]int // page number -> channel
}

// NewAddressMap returns an empty map.
func NewAddressMap() *AddressMap { return &AddressMap{pages: make(map[uint32]int)} }

// Map binds the 4 KiB page containing base to channel ch.
func (a *AddressMap) Map(base uint32, ch int) { a.pages[base>>12] = ch }

// Lookup returns the channel owning addr.
func (a *AddressMap) Lookup(addr uint32) (int, bool) {
	ch, ok := a.pages[addr>>12]
	return ch, ok
}

// ConfigWrite implements ni.BusConfigPort: one 28-bit word per mapping,
// channel<<24 | page.
func (a *AddressMap) ConfigWrite(value uint32) {
	ch := int(value >> 24 & 0xF)
	page := value & 0xFFFFFF
	a.pages[page] = ch
}

// MapConfigWord builds the 28-bit configuration word for Map(base, ch),
// for transmission through the configuration tree's RegBus writes.
func MapConfigWord(base uint32, ch int) uint32 {
	return uint32(ch&0xF)<<24 | base>>12
}

// Initiator is the IP-side bus plus shell: it demultiplexes transactions
// onto connections by address and serializes them into the NI's channel
// queues. Read responses are collected per channel.
type Initiator struct {
	name string
	ni   *ni.NI
	amap *AddressMap

	// queue of encoded words per channel still to be pushed into the NI
	pending map[int][]phit.Word
	// outstanding read lengths per channel, FIFO
	reads map[int][]int
	// completed read results in completion order
	results []ReadResult
	// collect buffers per channel
	collect map[int][]phit.Word
}

// ReadResult is one completed read transaction.
type ReadResult struct {
	Channel int
	Data    []phit.Word
	Cycle   uint64
}

// NewInitiator builds an initiator bus/shell in front of an NI.
func NewInitiator(s *sim.Simulator, name string, n *ni.NI, amap *AddressMap) *Initiator {
	b := &Initiator{
		name:    name,
		ni:      n,
		amap:    amap,
		pending: make(map[int][]phit.Word),
		reads:   make(map[int][]int),
		collect: make(map[int][]phit.Word),
	}
	s.Add(b)
	return b
}

// Name implements sim.Component.
func (b *Initiator) Name() string { return b.name }

// Issue submits a transaction; the bus resolves the channel by address.
func (b *Initiator) Issue(t Transaction) error {
	ch, ok := b.amap.Lookup(t.Addr)
	if !ok {
		return fmt.Errorf("bus %s: no mapping for address %#x", b.name, t.Addr)
	}
	words, err := t.encode()
	if err != nil {
		return err
	}
	b.pending[ch] = append(b.pending[ch], words...)
	if t.Kind == Read {
		b.reads[ch] = append(b.reads[ch], len(t.Data))
	}
	return nil
}

// PendingWords returns the number of serialized words not yet handed to
// the NI for channel ch.
func (b *Initiator) PendingWords(ch int) int { return len(b.pending[ch]) }

// PopResult returns the next completed read, if any.
func (b *Initiator) PopResult() (ReadResult, bool) {
	if len(b.results) == 0 {
		return ReadResult{}, false
	}
	r := b.results[0]
	b.results = b.results[1:]
	return r, true
}

// Eval implements sim.Component: drain pending words into the NI and
// collect read responses.
func (b *Initiator) Eval(cycle uint64) {
	for ch, words := range b.pending {
		n := 0
		for n < len(words) && b.ni.Send(ch, words[n]) {
			n++
		}
		b.pending[ch] = words[n:]
	}
	for ch, lens := range b.reads {
		if len(lens) == 0 {
			continue
		}
		for {
			d, ok := b.ni.Recv(ch)
			if !ok {
				break
			}
			b.collect[ch] = append(b.collect[ch], d.Word)
			if len(b.collect[ch]) == lens[0] {
				b.results = append(b.results, ReadResult{Channel: ch, Data: b.collect[ch], Cycle: cycle})
				b.collect[ch] = nil
				lens = lens[1:]
				b.reads[ch] = lens
				if len(lens) == 0 {
					break
				}
			}
		}
	}
}

// TargetShell deserializes channel messages arriving at an NI back into
// bus transactions and applies them to a Target, sending read data back on
// the same channel's reverse direction.
type TargetShell struct {
	name   string
	ni     *ni.NI
	target Target

	// per-channel deserializer state
	st map[int]*deser
	// response words per channel awaiting NI queue space
	resp map[int][]phit.Word

	writesApplied uint64
	readsServed   uint64
}

type deser struct {
	have  []phit.Word
	need  int // words still missing for the current transaction
	kind  Kind
	addr  uint32
	count int
}

// NewTargetShell builds a target shell behind an NI.
func NewTargetShell(s *sim.Simulator, name string, n *ni.NI, target Target) *TargetShell {
	t := &TargetShell{
		name:   name,
		ni:     n,
		target: target,
		st:     make(map[int]*deser),
		resp:   make(map[int][]phit.Word),
	}
	s.Add(t)
	return t
}

// Name implements sim.Component.
func (t *TargetShell) Name() string { return t.name }

// Stats returns counts of applied writes and served reads.
func (t *TargetShell) Stats() (writes, reads uint64) { return t.writesApplied, t.readsServed }

// WatchChannel registers a channel for deserialization.
func (t *TargetShell) WatchChannel(ch int) {
	if _, ok := t.st[ch]; !ok {
		t.st[ch] = &deser{}
	}
}

// Eval implements sim.Component.
func (t *TargetShell) Eval(cycle uint64) {
	for ch, d := range t.st {
		// Push out queued response words first.
		rw := t.resp[ch]
		n := 0
		for n < len(rw) && t.ni.Send(ch, rw[n]) {
			n++
		}
		t.resp[ch] = rw[n:]

		for {
			w, ok := t.ni.Recv(ch)
			if !ok {
				break
			}
			t.feed(ch, d, w.Word)
		}
	}
}

func (t *TargetShell) feed(ch int, d *deser, w phit.Word) {
	d.have = append(d.have, w)
	if len(d.have) == 1 {
		if w&(1<<31) != 0 {
			d.kind = Write
		} else {
			d.kind = Read
		}
		d.count = int(w & 0x7FFF)
		return
	}
	if len(d.have) == 2 {
		d.addr = uint32(w)
		if d.kind == Read {
			// Serve immediately: queue response words.
			for i := 0; i < d.count; i++ {
				t.resp[ch] = append(t.resp[ch], t.target.ReadWord(d.addr+uint32(4*i)))
			}
			t.readsServed++
			d.have = d.have[:0]
		}
		return
	}
	// Write payload word.
	idx := len(d.have) - 3
	t.target.WriteWord(d.addr+uint32(4*idx), w)
	if idx == d.count-1 {
		t.writesApplied++
		d.have = d.have[:0]
	}
}
