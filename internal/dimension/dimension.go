// Package dimension implements the network dimensioning step of the
// design flow the paper leverages ("for network dimensioning ... we use
// the standard Æthereal tools"): applications state *requirements* —
// words-per-cycle bandwidth and worst-case latency per connection — and
// the dimensioner chooses the smallest TDM wheel and per-connection slot
// counts/positions that satisfy all of them simultaneously, driving the
// contention-free allocator with spread slot selection for the
// latency-constrained connections.
package dimension

import (
	"fmt"
	"math"

	"daelite/internal/alloc"
	"daelite/internal/analysis"
	"daelite/internal/topology"
)

// Requirement is one application-level connection demand.
type Requirement struct {
	Name string
	Src  topology.NodeID
	Dst  topology.NodeID
	// Bandwidth is the required throughput in words per cycle (a slot
	// wheel share).
	Bandwidth float64
	// MaxLatency bounds the worst-case end-to-end latency in cycles
	// (scheduling wait + serialization + traversal); 0 means
	// unconstrained.
	MaxLatency int
	// Multipath permits splitting (only for latency-unconstrained
	// requirements; multipath spreads arrivals).
	Multipath bool
}

// Assignment is the dimensioner's answer for one requirement.
type Assignment struct {
	Requirement Requirement
	Slots       int
	Alloc       *alloc.Unicast
	// GuaranteedBandwidth and WorstCaseLatency are the achieved
	// guarantees.
	GuaranteedBandwidth float64
	WorstCaseLatency    int
}

// Result is a complete dimensioning outcome.
type Result struct {
	Wheel       int
	Assignments []*Assignment
	Allocator   *alloc.Allocator
}

// Config bounds the search.
type Config struct {
	// WheelCandidates are tried in order; the first wheel satisfying
	// every requirement wins. Default: 8, 16, 32, 64.
	WheelCandidates []int
	// SlotWords is the slot length in words (2 for daelite).
	SlotWords int
}

func (c Config) withDefaults() Config {
	if len(c.WheelCandidates) == 0 {
		c.WheelCandidates = []int{8, 16, 32, 64}
	}
	if c.SlotWords <= 0 {
		c.SlotWords = 2
	}
	return c
}

// Dimension finds the smallest candidate wheel on which every requirement
// can be allocated with its bandwidth and latency guarantees met.
func Dimension(g *topology.Graph, reqs []Requirement, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(reqs) == 0 {
		return nil, fmt.Errorf("dimension: no requirements")
	}
	var lastErr error
	for _, wheel := range cfg.WheelCandidates {
		res, err := tryWheel(g, reqs, wheel, cfg.SlotWords)
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dimension: no candidate wheel fits: %w", lastErr)
}

func tryWheel(g *topology.Graph, reqs []Requirement, wheel, slotWords int) (*Result, error) {
	a := alloc.New(g, wheel)
	res := &Result{Wheel: wheel, Allocator: a}
	for _, req := range reqs {
		asg, err := place(g, a, req, wheel, slotWords)
		if err != nil {
			return nil, fmt.Errorf("wheel %d: %q: %w", wheel, req.Name, err)
		}
		res.Assignments = append(res.Assignments, asg)
	}
	return res, nil
}

// place allocates one requirement, growing the slot count until both the
// bandwidth and the latency guarantee hold (more slots reduce the
// worst-case gap).
func place(g *topology.Graph, a *alloc.Allocator, req Requirement, wheel, slotWords int) (*Assignment, error) {
	if req.Bandwidth <= 0 || req.Bandwidth > 1 {
		return nil, fmt.Errorf("dimension: bandwidth %v out of (0, 1]", req.Bandwidth)
	}
	minSlots := int(math.Ceil(req.Bandwidth * float64(wheel)))
	if minSlots < 1 {
		minSlots = 1
	}
	opts := alloc.Options{Multipath: req.Multipath, MaxDetour: 0, Spread: req.MaxLatency > 0}
	if req.Multipath {
		opts.MaxDetour = 2
	}
	var lastErr error
	for nslots := minSlots; nslots <= wheel; nslots++ {
		u, err := a.Unicast(req.Src, req.Dst, nslots, opts)
		if err != nil {
			lastErr = err
			break // more slots cannot help a capacity failure
		}
		gu := analysis.UnicastGuarantees(g, u, slotWords)
		if wc := gu.WorstCaseLatency; req.MaxLatency > 0 && wc > req.MaxLatency {
			// Not enough slot density for the latency bound: release
			// and retry with one more slot.
			a.ReleaseUnicast(u)
			lastErr = fmt.Errorf("dimension: worst-case latency %d > bound %d with %d slots", wc, req.MaxLatency, nslots)
			continue
		}
		return &Assignment{
			Requirement:         req,
			Slots:               nslots,
			Alloc:               u,
			GuaranteedBandwidth: gu.Bandwidth,
			WorstCaseLatency:    gu.WorstCaseLatency,
		}, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dimension: wheel exhausted")
	}
	return nil, lastErr
}
