// Package experiments regenerates every table, figure and quantified
// claim of the paper's evaluation section (the E1–E24 and A1–A9 index in
// DESIGN.md §4, listed once in Registry). Each experiment returns a
// Result holding the rendered table(s) plus the headline metrics, so the
// same code backs both the root benchmark harness (bench_test.go) and the
// `daelite bench` subcommand, and tests can assert the paper's shape — who
// wins and by roughly what factor.
package experiments

import (
	"daelite/internal/aelite"
	"daelite/internal/core"
	"daelite/internal/topology"
)

// Result is one regenerated artifact.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (E1..E24, A1..A9).
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

// platformParams returns the parameters every experiment platform starts
// from: the defaults at the given wheel size, with the package-wide
// policy (today SetFastForward alone) applied. A policy that must reach
// every experiment is one line here.
func platformParams(wheel int) core.Params {
	params := core.DefaultParams()
	params.Wheel = wheel
	params.FastForward = platformFastForward
	return params
}

// daelitePlatform builds a daelite mesh with the host at (0, 0).
func daelitePlatform(w, h, wheel int) (*core.Platform, error) {
	return core.NewMeshPlatform(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1}, platformParams(wheel), 0, 0)
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
