package alloc

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
}

// DryRun answers a what-if query: would this use-case fit right now, and
// with which paths and slots? It runs AllocateUseCase in place under an
// undo-journal transaction, aborts it and restores the epoch, so the
// allocator is left untouched in every observable way — occupancy,
// journal, Epoch (a bumped epoch would force conformance checkers to
// resync) and the exclusion generation. Only the path cache can gain
// entries. The returned allocation is a prediction, not a reservation:
// nothing is held, and a later admission may take the slots it names.
func (a *Allocator) DryRun(reqs []Request) (*UseCaseAlloc, error) {
	epoch := a.epoch
	mark := a.beginTxn()
	uc, err := a.AllocateUseCase(reqs)
	a.abortTxn(mark)
	a.epoch = epoch
	return uc, err
}

// Batch admits items one after another through AllocateUseCase, in item
// order, so each item sees the reservations of every earlier one. It
// returns one result per item. workers is ignored: admission is in-order
// and single-owner, as the paper's host sends one configuration request
// at a time.
func (a *Allocator) Batch(items []BatchItem, workers int) []BatchResult {
	results := make([]BatchResult, len(items))
	for i, it := range items {
		results[i].Alloc, results[i].Err = a.AllocateUseCase(it.Reqs)
	}
	return results
}
