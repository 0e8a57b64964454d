// Package analysis is the analytical model of the TDM NoC: the closed
// forms behind the paper's QoS claim, each written here once as a pure
// function. The toolkit facade, the dimensioner, the conformance model,
// the experiments and the CLIs call these functions instead of restating
// a law; simulation results are checked against them in tests — the
// measured value may never exceed the guarantee.
//
// The laws and their one home:
//
//   - Bandwidth: GuaranteedBandwidth, the reserved share of the wheel.
//   - Scheduling wait: MaxSlotGapCycles, the largest circular gap of the
//     slot mask (slots.Mask.MaxGap, which lives in slots so the allocator
//     can use it) times the slot size.
//   - Traversal: TraversalCycles, SlotWords cycles per slot of advance
//     (one per hop plus one per pipeline stage).
//   - End-to-end: WorstCaseLatency composes wait, serialization and
//     traversal for one path; UnicastGuarantees folds it over the paths
//     of a connection, with its LRServer and summed bandwidth.
//   - Measurement slack: CommitSlack, the NI register edges a measured
//     latency includes on top of the slot model.
//   - Set-up words: PathSetupCost and UnicastSetupCost, the mirror of the
//     configuration packet builder; SetupCyclesDaeliteIdeal turns words
//     into the paper's "ideal" set-up time.
//   - aelite comparison: HeaderOverheadAelite, ConfigSlotLoss,
//     PathLatencyCyclesAelite and SetupCyclesAeliteIdeal.
package analysis

import (
	"math"

	"daelite/internal/alloc"
	"daelite/internal/slots"
	"daelite/internal/topology"
)

// CommitSlack is the number of cycles a measured word latency includes
// beyond the slot model: a word handed to Send becomes eligible for
// injection one cycle later (two-phase safety), and the destination NI
// stamps its delivery at the commit edge of the receiving cycle.
// Comparisons of a measured latency against a slot-model bound allow
// this many cycles.
const CommitSlack = 2

// GuaranteedBandwidth returns the guaranteed throughput of a reservation
// in words per cycle: count slots of a wheel-slot wheel, each slot
// carrying its full payload (daelite has no header overhead).
func GuaranteedBandwidth(mask slots.Mask) float64 {
	return float64(mask.Count()) / float64(mask.Size)
}

// HeaderOverheadAelite returns the fraction of reserved bandwidth lost to
// headers for a given packet span: 1/(span*slotWords). With 3-word slots
// this brackets the paper's 11 % (span 3) to 33 % (span 1).
func HeaderOverheadAelite(slotWords, span int) float64 {
	if span < 1 {
		span = 1
	}
	if span > 3 {
		span = 3
	}
	return 1 / float64(span*slotWords)
}

// ConfigSlotLoss returns the fraction of NI-link bandwidth aelite loses to
// its reserved configuration slots: reserved/wheel (the paper's 6.25 % at
// one slot of a 16-slot wheel). daelite's loss is zero — its configuration
// travels on dedicated links.
func ConfigSlotLoss(reserved, wheel int) float64 {
	return float64(reserved) / float64(wheel)
}

// MaxSlotGapCycles returns the worst-case scheduling latency of a
// reservation in cycles: the longest wait from a word becoming ready at
// the NI until the start of the next owned slot.
func MaxSlotGapCycles(mask slots.Mask, slotWords int) int {
	return mask.MaxGap() * slotWords
}

// TraversalCycles returns the network traversal latency of a daelite path
// (or multicast tree branch) whose total slot advance is advance: every
// slot of advance costs slotWords cycles. An unpipelined path of L links
// advances L slots; each pipeline stage of a long or mesochronous link
// adds one.
func TraversalCycles(advance, slotWords int) int {
	return advance * slotWords
}

// PathLatencyCyclesAelite returns the aelite traversal latency over the
// same path: three cycles per router plus the NI ingress registers. A path
// of L links visits L-1 routers.
func PathLatencyCyclesAelite(links int) int {
	routers := links - 1
	if routers < 0 {
		routers = 0
	}
	return 3*routers + 2
}

// WorstCaseLatency bounds the end-to-end latency of a word on one daelite
// path with slot advance advance: worst scheduling wait plus slot
// serialization plus path traversal.
func WorstCaseLatency(mask slots.Mask, slotWords, advance int) int {
	return MaxSlotGapCycles(mask, slotWords) + slotWords + TraversalCycles(advance, slotWords)
}

// Guarantees summarizes the hard service guarantees of a unicast channel.
type Guarantees struct {
	// Bandwidth is the guaranteed throughput in words per cycle.
	Bandwidth float64
	// WorstCaseLatency bounds the end-to-end latency of any word in
	// cycles (scheduling wait + serialization + traversal).
	WorstCaseLatency int
	// Server is the latency-rate form of the same guarantee.
	Server LRServer
}

// UnicastGuarantees returns the guarantees of an allocated unicast
// channel on graph g: the worst path latency, each path counting only its
// own slots, and the reserved share of the wheel summed over all paths.
// The latency-rate server is the same pair: after the worst path latency
// the channel serves at its full rate.
func UnicastGuarantees(g *topology.Graph, u *alloc.Unicast, slotWords int) Guarantees {
	var gu Guarantees
	inject := slots.NewMask(u.Paths[0].InjectSlots.Size)
	for _, pa := range u.Paths {
		wc := WorstCaseLatency(pa.InjectSlots, slotWords, g.PathSlotAdvance(pa.Path))
		gu.WorstCaseLatency = max(gu.WorstCaseLatency, wc)
		inject = inject.Union(pa.InjectSlots)
	}
	gu.Bandwidth = GuaranteedBandwidth(inject)
	gu.Server = LRServer{Theta: float64(gu.WorstCaseLatency), Rho: gu.Bandwidth}
	return gu
}

// SetupCyclesDaeliteIdeal returns the analytic set-up time of a daelite
// connection whose forward and reverse paths take words configuration
// words (PathSetupCost): the words serialized one per cycle, plus tree
// propagation to the farthest affected element and the cool-down after
// each of the two packets.
func SetupCyclesDaeliteIdeal(words, treeDepth, cooldown int) int {
	propagation := 2 * (treeDepth + 1)
	return words + propagation + 2*cooldown
}

// SetupCyclesAeliteIdeal estimates aelite set-up time: each register-write
// operation (route, remote queue, credit and flag registers plus one write
// per reserved slot, at each endpoint) is a request and acknowledgement
// over the network (3 cycles per router hop each way) plus an average
// half-wheel wait for the configuration slot on both paths.
func SetupCyclesAeliteIdeal(slotsFwd, slotsRev, hops, wheel, slotWords int) int {
	ops := (4 + slotsFwd) + (4 + slotsRev)
	slotWait := wheel * slotWords / 2
	roundTrip := 2*(3*hops+2) + 2*slotWait
	return ops * roundTrip
}

// LRServer is the latency-rate abstraction of a TDM connection, the form
// in which NoC guarantees enter system-level real-time analysis (the
// CoMPSoC verification flow of [15]): after at most Theta cycles of
// initial latency the connection serves at least Rho words per cycle.
type LRServer struct {
	// Theta is the service latency in cycles.
	Theta float64
	// Rho is the guaranteed rate in words per cycle.
	Rho float64
}

// MaxDelay bounds the delay of any word of a (sigma, rho)-constrained
// arrival stream (burst size sigma words, long-term rate rho <= Rho)
// through the server: Theta + sigma/Rho.
func (s LRServer) MaxDelay(sigma float64) float64 {
	if s.Rho <= 0 {
		return math.Inf(1)
	}
	return s.Theta + sigma/s.Rho
}
