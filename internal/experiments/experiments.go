// Package experiments regenerates every table, figure and quantified
// claim of the paper's evaluation section (the E1–E13 index in DESIGN.md).
// Each experiment returns a Result holding the rendered table(s) plus the
// headline metrics, so the same code backs both the root benchmark
// harness (bench_test.go) and the cmd/daelite-bench binary, and tests can
// assert the paper's shape — who wins and by roughly what factor.
package experiments

import (
	"fmt"

	"daelite/internal/aelite"
	"daelite/internal/core"
	"daelite/internal/topology"
)

// Result is one regenerated artifact.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (E1..E13).
	ID string
	// Artifact names the paper artifact ("Table III", "Fig. 7", ...).
	Artifact string
	// Text is the rendered table/series output.
	Text string
	// Metrics holds the headline numbers by name.
	Metrics map[string]float64
}

func newResult(id, artifact string) *Result {
	return &Result{ID: id, Artifact: artifact, Metrics: make(map[string]float64)}
}

// platformFastForward arms quiescence-driven fast-forward on every
// platform built by the experiments; see SetFastForward.
var platformFastForward bool

// SetFastForward arms model-guided fast-forwarding for platforms built
// by the experiments. Every regenerated table is bit-identical with it
// on or off — the knob only changes wall-clock cost, which is exactly
// what running the full suite both ways verifies.
func SetFastForward(ff bool) { platformFastForward = ff }

// daelitePlatform builds a daelite mesh with the host at (0, 0).
func daelitePlatform(w, h, wheel int) (*core.Platform, error) {
	params := core.DefaultParams()
	params.Wheel = wheel
	params.FastForward = platformFastForward
	return core.NewMeshPlatform(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1}, params, 0, 0)
}

// aeliteNetwork builds an aelite mesh with the host at (0, 0).
func aeliteNetwork(w, h, wheel int) (*aelite.Network, error) {
	params := aelite.DefaultNetParams()
	params.Wheel = wheel
	return aelite.NewMeshNetwork(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1}, params, 0, 0)
}

// openDaelite opens a unicast connection and waits for configuration.
func openDaelite(p *core.Platform, src, dst topology.NodeID, slotsFwd int) (*core.Connection, error) {
	c, err := p.Open(core.ConnectionSpec{Src: src, Dst: dst, SlotsFwd: slotsFwd})
	if err != nil {
		return nil, err
	}
	if err := p.AwaitOpen(c, 1_000_000); err != nil {
		return nil, err
	}
	return c, nil
}

// openAelite opens an aelite connection and waits for configuration.
func openAelite(n *aelite.Network, src, dst topology.NodeID, slotsFwd int) (*aelite.Connection, error) {
	c, err := n.Open(src, dst, slotsFwd, 1)
	if err != nil {
		return nil, err
	}
	if err := n.AwaitOpen(c, 5_000_000); err != nil {
		return nil, err
	}
	return c, nil
}

// All runs every paper experiment (E1..E13) followed by the ablations
// (A1..A5) and returns the results in index order.
func All() ([]*Result, error) {
	runs := []func() (*Result, error){
		TableIFeatures,
		TableIIArea,
		TableIIISetup,
		TraversalLatency,
		HeaderOverhead,
		ConfigSlotLoss,
		MultipathGain,
		SchedulingLatency,
		Fig6PathSetup,
		MulticastTreeVsUnicast,
		ContentionFreedom,
		CriticalPath,
		UseCaseSwitch,
		AttainedBandwidth,
		FaultRepair,
		ConformanceSweep,
		AblationWheelSize,
		AblationCooldown,
		AblationTreeDepth,
		AblationQueueDepth,
		AblationLongLinks,
		EnergyPerWord,
		SlotPlacement,
		PartialReconfig,
		ModelVsModelArea,
		RegionSetup,
		TraceBreakdown,
		DNNWorkload,
		SwitchWorkload,
	}
	var out []*Result
	for _, run := range runs {
		r, err := run()
		if err != nil {
			return out, fmt.Errorf("experiments: %w", err)
		}
		out = append(out, r)
	}
	return out, nil
}
