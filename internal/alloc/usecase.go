package alloc

import (
	"fmt"

	"daelite/internal/topology"
)

// Request is one connection demand inside a use-case: unicast when Dsts is
// empty, multicast otherwise.
type Request struct {
	Src   topology.NodeID
	Dst   topology.NodeID
	Dsts  []topology.NodeID
	Slots int
	Opts  Options
}

// UseCaseAlloc is the result of a transactional use-case allocation.
type UseCaseAlloc struct {
	Unicasts   []*Unicast
	Multicasts []*Multicast
}

// AllocateUseCase reserves every request of a use-case atomically: either
// all requests fit simultaneously (and are committed), or none is and the
// allocator is left untouched. This is the design-time planning step of
// the multi-use-case flow the paper inherits from the Æthereal tooling
// ([25]): the schedule for an application is computed before its execution
// phase starts, and AllocateUseCase answers whether a use-case is
// admissible at all.
func (a *Allocator) AllocateUseCase(reqs []Request) (*UseCaseAlloc, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("alloc: empty use-case")
	}
	nu := 0
	for _, r := range reqs {
		if len(r.Dsts) == 0 {
			nu++
		}
	}
	// Requests commit directly under an undo-journal transaction: a
	// failing request rolls back only the words the earlier requests
	// wrote, not a copy of the whole network.
	mark := a.beginTxn()
	out := &UseCaseAlloc{Unicasts: make([]*Unicast, 0, nu)}
	for i, r := range reqs {
		if len(r.Dsts) > 0 {
			mc, err := a.Multicast(r.Src, r.Dsts, r.Slots)
			if err != nil {
				a.abortTxn(mark)
				return nil, fmt.Errorf("alloc: use-case request %d: %w", i, err)
			}
			out.Multicasts = append(out.Multicasts, mc)
			continue
		}
		u, err := a.Unicast(r.Src, r.Dst, r.Slots, r.Opts)
		if err != nil {
			a.abortTxn(mark)
			return nil, fmt.Errorf("alloc: use-case request %d: %w", i, err)
		}
		out.Unicasts = append(out.Unicasts, u)
	}
	a.commitTxn()
	return out, nil
}

// ReleaseUseCase returns every reservation of a use-case to the pool.
func (a *Allocator) ReleaseUseCase(uc *UseCaseAlloc) {
	for _, u := range uc.Unicasts {
		a.ReleaseUnicast(u)
	}
	for _, m := range uc.Multicasts {
		a.ReleaseMulticast(m)
	}
}
