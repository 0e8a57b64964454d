package alloc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchItem is one admission request group evaluated atomically inside a
// batch — typically the forward+reverse channel pair of one connection.
type BatchItem struct {
	Reqs []Request
}

// BatchResult is the outcome of one batch item, in item order.
type BatchResult struct {
	// Alloc holds the committed reservations when Err is nil.
	Alloc *UseCaseAlloc
	Err   error
	// Reevaluated marks items whose optimistic proposal conflicted with
	// an earlier commit and were re-run against the live state.
	Reevaluated bool
}

// BatchStats summarizes one Batch call.
type BatchStats struct {
	Items     int
	Committed int
	Failed    int
	// Conflicts counts proposals invalidated by earlier commits (each
	// was re-evaluated sequentially).
	Conflicts int
	Workers   int
}

// DryRun answers a what-if query: would this use-case fit right now, and
// with which paths and slots? It evaluates against a read snapshot of the
// current occupancy, so the live allocator is untouched in every
// observable way — no occupancy write, no journal growth, no Epoch bump
// (a bumped epoch would force conformance checkers to resync), and no
// path-cache generation change (the clone shares the cache read-only).
// The returned allocation is a prediction, not a reservation: nothing is
// held, and a later admission may take the slots it names.
//
// Like Batch, DryRun must not run concurrently with mutations of the
// allocator; concurrent DryRuns against a quiescent allocator are safe.
func (a *Allocator) DryRun(reqs []Request) (*UseCaseAlloc, error) {
	snap := a.Clone()
	mark := snap.beginTxn()
	uc, err := snap.AllocateUseCase(reqs)
	snap.abortTxn(mark)
	return uc, err
}

// Batch admits many request groups with the optimistic-concurrency shape
// of the sim kernel: phase 1 what-if-evaluates every item concurrently
// against a read snapshot of the current occupancy (workers <= 0 means
// GOMAXPROCS; the caller's goroutine is one of them, so one worker, or
// one item, starts no goroutine), phase 2 commits in item order,
// re-evaluating any proposal an earlier commit invalidated. Proposals
// depend only on the snapshot and re-evaluation happens sequentially in
// item order, so results are bit-identical for every worker count.
//
// Batch only allocates (occupancy grows monotonically through the call),
// so an item that fails against the snapshot cannot succeed against any
// later state and its snapshot error is final. The allocator must not be
// mutated concurrently with Batch.
func (a *Allocator) Batch(items []BatchItem, workers int) ([]BatchResult, BatchStats) {
	stats := BatchStats{Items: len(items)}
	if len(items) == 0 {
		return nil, stats
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	stats.Workers = workers

	// Phase 1: evaluate each item against a clone of the current state.
	// Clones are cheap dense-slice copies sharing the graph and path
	// cache; the journal rolls each what-if back so one clone serves a
	// whole worker.
	type proposal struct {
		uc  *UseCaseAlloc
		err error
	}
	proposals := make([]proposal, len(items))
	var cursor atomic.Int64
	evaluate := func() {
		snap := a.Clone()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(items) {
				return
			}
			mark := snap.beginTxn()
			uc, err := snap.AllocateUseCase(items[i].Reqs)
			snap.abortTxn(mark)
			proposals[i] = proposal{uc: uc, err: err}
		}
	}
	// The caller's goroutine is one of the workers.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evaluate()
		}()
	}
	evaluate()
	wg.Wait()

	// Phase 2: deterministic sequential commit in item order.
	results := make([]BatchResult, len(items))
	for i := range items {
		p := proposals[i]
		if p.err != nil {
			results[i] = BatchResult{Err: p.err}
			stats.Failed++
			continue
		}
		if a.applyProposal(p.uc) {
			results[i] = BatchResult{Alloc: p.uc}
			stats.Committed++
			continue
		}
		stats.Conflicts++
		uc, err := a.AllocateUseCase(items[i].Reqs)
		results[i] = BatchResult{Alloc: uc, Err: err, Reevaluated: true}
		if err != nil {
			stats.Failed++
		} else {
			stats.Committed++
		}
	}
	return results, stats
}

// applyProposal commits a snapshot-evaluated allocation if its exact slots
// are still free, checking progressively under a transaction so partially
// applied groups roll back on conflict.
func (a *Allocator) applyProposal(uc *UseCaseAlloc) bool {
	mark := a.beginTxn()
	for _, u := range uc.Unicasts {
		if !a.unicastFits(u) {
			a.abortTxn(mark)
			return false
		}
		a.commitUnicast(u)
	}
	for _, m := range uc.Multicasts {
		if !a.multicastFits(m) {
			a.abortTxn(mark)
			return false
		}
		a.commitMulticast(m)
	}
	a.commitTxn()
	return true
}

// unicastFits reports whether u's exact reservation is collision-free
// against the current occupancy.
func (a *Allocator) unicastFits(u *Unicast) bool {
	for _, pa := range u.Paths {
		if pa.InjectSlots.Bits&a.txBits(u.Src) != 0 {
			return false
		}
		off := 0
		for _, l := range pa.Path {
			if pa.InjectSlots.RotateUp(off).Bits&a.linkBits(l) != 0 {
				return false
			}
			off += a.g.SlotAdvance(l)
		}
		if pa.InjectSlots.RotateUp(off).Bits&a.rxBits(u.Dst) != 0 {
			return false
		}
	}
	return true
}

// multicastFits reports whether m's exact reservation is collision-free
// against the current occupancy.
func (a *Allocator) multicastFits(m *Multicast) bool {
	if m.InjectSlots.Bits&a.txBits(m.Src) != 0 {
		return false
	}
	for _, e := range m.Edges {
		if m.InjectSlots.RotateUp(e.Depth).Bits&a.linkBits(e.Link) != 0 {
			return false
		}
	}
	for d, dep := range m.DestDepth {
		if m.InjectSlots.RotateUp(dep).Bits&a.rxBits(d) != 0 {
			return false
		}
	}
	return true
}
