package core

import (
	"errors"
	"fmt"

	"daelite/internal/alloc"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// ErrBatchAlloc wraps Open and OpenBatch failures that happened inside
// the allocator (no capacity, no path): the item had no effect on
// occupancy. Callers distinguish these "nofit" outcomes from downstream
// failures (channel exhaustion after a committed reservation, which is
// rolled back) with errors.Is.
var ErrBatchAlloc = errors.New("batch allocation failed")

// ErrNoChannel marks NI channel exhaustion: the slot reservation fit,
// but an endpoint had no free local channel and the reservation was
// rolled back. Like a nofit it is a capacity condition — the request
// may succeed once a connection at that endpoint closes — but unlike a
// nofit the transient reservation can have influenced later items of
// the same batch, so replay-exact callers record it separately.
var ErrNoChannel = errors.New("out of channels")

// chanPref carries the NI channel preferences of one batch entry (repair
// re-opens a connection on the channel indices its endpoints are bound
// to; fresh connections pass -1 / nil).
type chanPref struct {
	src, dst int
	dsts     map[topology.NodeID]int
}

// noPref asks for the lowest free channels.
var noPref = chanPref{src: -1, dst: -1}

// OpenBatch admits many connections as one batch: every spec's slots are
// reserved in spec order, each seeing the reservations of the specs
// before it, then each admitted connection's configuration packets are
// built and submitted in spec order. It returns one connection or one
// error per spec, index-aligned; a failed spec never blocks the others. Like Open, returned connections
// are in state Opening until the configuration settles
// (CompleteConfig/AwaitOpen).
func (p *Platform) OpenBatch(specs []ConnectionSpec) ([]*Connection, []error) {
	return p.openBatch(specs, nil, nil)
}

// OpenBatchTraced is OpenBatch with a per-item trace parent: item i's
// set-up transaction span is parented under parents[i] (an invalid ref
// opens a fresh trace). The admission control plane uses it to hang each
// set-up under the request span that caused it.
func (p *Platform) OpenBatchTraced(specs []ConnectionSpec, parents []tracing.SpanRef) ([]*Connection, []error) {
	return p.openBatch(specs, nil, parents)
}

// AllocItem translates a connection spec into the allocator batch item
// Open and OpenBatch evaluate — the forward+reverse request pair for
// unicast (SlotsRev defaulting to 1, as the credit return path needs at
// least one slot), or the single tree request for multicast. It returns
// the normalized spec alongside. The admission control plane's journal
// replay uses the same translation, so a replayed batch is guaranteed to
// put the identical demand before the allocator.
func AllocItem(spec ConnectionSpec) (ConnectionSpec, alloc.BatchItem, error) {
	if spec.SlotsFwd <= 0 {
		return spec, alloc.BatchItem{}, fmt.Errorf("core: SlotsFwd must be positive")
	}
	if spec.multicast() {
		return spec, alloc.BatchItem{Reqs: []alloc.Request{
			{Src: spec.Src, Dsts: spec.Dsts, Slots: spec.SlotsFwd},
		}}, nil
	}
	if spec.SlotsRev <= 0 {
		spec.SlotsRev = 1
	}
	opts := spec.allocOptions()
	return spec, alloc.BatchItem{Reqs: []alloc.Request{
		{Src: spec.Src, Dst: spec.Dst, Slots: spec.SlotsFwd, Opts: opts},
		{Src: spec.Dst, Dst: spec.Src, Slots: spec.SlotsRev, Opts: opts},
	}}, nil
}

// reserve is the per-item admission step Open and OpenBatch share: it
// validates and normalizes spec and reserves its slots in one
// AllocateUseCase — the forward+reverse pair, or the tree. The returned
// connection holds the reservation and no channels yet (finish takes
// them). Allocator refusals wrap ErrBatchAlloc.
func (p *Platform) reserve(spec ConnectionSpec) (*Connection, error) {
	if err := p.validateEndpoints(spec); err != nil {
		return nil, err
	}
	spec, item, err := AllocItem(spec)
	if err != nil {
		return nil, err
	}
	uc, err := p.Alloc.AllocateUseCase(item.Reqs)
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrBatchAlloc, err)
	}
	c := &Connection{Spec: spec}
	if spec.multicast() {
		c.Tree = uc.Multicasts[0]
	} else {
		c.Fwd, c.Rev = uc.Unicasts[0], uc.Unicasts[1]
	}
	return c, nil
}

// openBatch is OpenBatchTraced with per-item NI channel preferences;
// nil prefs prefer nothing. Every item is reserved, in order, before any
// is finished, so an item that later fails for want of a channel still
// shaped the slots of the items after it — journal replay relies on that.
func (p *Platform) openBatch(specs []ConnectionSpec, prefs []chanPref, parents []tracing.SpanRef) ([]*Connection, []error) {
	conns := make([]*Connection, len(specs))
	errs := make([]error, len(specs))
	for i, spec := range specs {
		conns[i], errs[i] = p.reserve(spec)
	}
	if parents != nil {
		// Each item's set-up transaction adopts its own trace parent.
		saved := p.traceParent
		defer func() { p.traceParent = saved }()
	}
	for i, c := range conns {
		if c == nil {
			continue
		}
		if parents != nil && i < len(parents) {
			p.traceParent = parents[i]
		}
		pref := noPref
		if prefs != nil {
			pref = prefs[i]
		}
		conns[i], errs[i] = p.finish(c, pref)
	}
	return conns, errs
}
