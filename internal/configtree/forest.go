package configtree

import (
	"fmt"

	"daelite/internal/cfgproto"
	"daelite/internal/phit"
)

// Forest is the region-router facade over a partitioned platform's
// configuration infrastructure: one Module (host port + broadcast tree)
// per configuration region. On a single-region platform it is a thin
// wrapper around the one module and never emits envelopes, preserving
// the pre-region wire format exactly; with several regions every packet
// is wrapped in a cfgproto region select and transmitted on the selected
// region's tree, where the elements' decoders skip the envelope and
// decode against their region-local IDs.
type Forest struct {
	mods []*Module
	env  []phit.ConfigWord // Submit's envelope buffer; SubmitPacket copies
}

// NewForest builds the facade over the per-region modules, indexed by
// region number.
func NewForest(mods ...*Module) *Forest {
	if len(mods) == 0 {
		panic("configtree: forest needs at least one module")
	}
	return &Forest{mods: mods}
}

// NumRegions returns the number of configuration regions.
func (f *Forest) NumRegions() int { return len(f.mods) }

// Region returns one region's configuration module.
func (f *Forest) Region(r int) *Module { return f.mods[r] }

// Submit queues a packet for the given region. On a multi-region forest
// the packet is wrapped in a region-select envelope first — the envelope
// words travel on the region's forward tree like any others. It returns
// the number of words actually transmitted (payload plus envelope).
func (f *Forest) Submit(region int, words []phit.ConfigWord) (int, error) {
	if region < 0 || region >= len(f.mods) {
		return 0, fmt.Errorf("configtree: region %d out of range 0..%d", region, len(f.mods)-1)
	}
	if len(f.mods) == 1 {
		return len(words), f.mods[region].SubmitPacket(words)
	}
	env, err := cfgproto.AppendEnvelope(f.env[:0], region, words)
	if err != nil {
		return 0, err
	}
	f.env = env
	return len(env), f.mods[region].SubmitPacket(env)
}

// WireWords is the number of words Submit transmits for an n-word packet
// to region: n, plus the envelope on a multi-region forest.
func (f *Forest) WireWords(region, n int) int {
	if len(f.mods) == 1 {
		return n
	}
	return n + 1 + cfgproto.RegionSelectWords(region)
}

// Fits reports, as an error, whether every region r has staging room for
// need[r] more words; a caller that checks a whole transaction first can
// then submit it without any packet failing for lack of room.
func (f *Forest) Fits(need []int) error {
	for r, n := range need {
		m := f.mods[r]
		if staged := m.QueueLen(); n > 0 && staged+n > m.params.QueueDepth {
			return fmt.Errorf("configtree: staging queue full in region %d (%d+%d > %d)", r, staged, n, m.params.QueueDepth)
		}
	}
	return nil
}

// Busy reports whether any region's module still has words to send or is
// in cool-down: a multi-region transaction settles only when all
// involved trees have drained.
func (f *Forest) Busy() bool {
	for _, m := range f.mods {
		if m.Busy() {
			return true
		}
	}
	return false
}

// ReadOutstanding reports whether any region awaits a read response.
// Each region's reverse path carries at most one outstanding read; the
// per-region invariant is checked per module.
func (f *Forest) ReadOutstanding() bool {
	for _, m := range f.mods {
		if m.ReadOutstanding() {
			return true
		}
	}
	return false
}

// Stats sums packets and words transmitted across all regions.
func (f *Forest) Stats() (packets, words uint64) {
	for _, m := range f.mods {
		p, w := m.Stats()
		packets += p
		words += w
	}
	return packets, words
}
