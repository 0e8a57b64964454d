// Package fifo provides the fixed-depth queue that models an NI's
// per-channel hardware FIFOs, in the two-phase discipline of the cycle
// kernel: a push is staged and becomes visible at Commit, and a pop may
// keep its entry occupied until Commit.
package fifo

// Ring is a FIFO of at most depth entries on one buffer of exactly that
// many, allocated at the first Stage and reused for the ring's lifetime.
// Entries are, from the head: taken (consumed since the last Commit,
// still occupying their place), visible (Len), then staged past the tail
// (invisible until Commit). A ring that Takes must not Pop.
type Ring[T any] struct {
	buf    []T
	depth  int
	head   int // buffer index of the oldest entry
	n      int // committed entries, taken ones included
	taken  int
	staged int
}

// New returns an empty ring of the given depth; it allocates nothing.
func New[T any](depth int) Ring[T] { return Ring[T]{depth: depth} }

// Len returns the number of committed entries not yet taken.
func (r *Ring[T]) Len() int { return r.n - r.taken }

// Used returns the entries the ring holds — taken, visible and staged —
// which is what its depth bounds.
func (r *Ring[T]) Used() int { return r.n + r.staged }

// Full reports whether Used has reached the depth.
func (r *Ring[T]) Full() bool { return r.n+r.staged >= r.depth }

// at maps the i-th entry from the head to its buffer index (i < 2*depth).
func (r *Ring[T]) at(i int) int {
	i += r.head
	if i >= r.depth {
		i -= r.depth
	}
	return i
}

// Stage appends v past the tail, visible from the next Commit. It panics
// on a full ring: callers check Full first.
func (r *Ring[T]) Stage(v T) {
	if r.Full() {
		panic("fifo: Stage on a full ring")
	}
	if r.buf == nil {
		r.buf = make([]T, r.depth)
	}
	r.buf[r.at(r.n+r.staged)] = v
	r.staged++
}

// Peek returns the oldest visible entry; Len must be positive.
func (r *Ring[T]) Peek() T { return r.buf[r.at(r.taken)] }

// Take consumes the oldest visible entry, whose place stays occupied
// until Commit; Len must be positive.
func (r *Ring[T]) Take() T {
	v := r.Peek()
	r.taken++
	return v
}

// Pop consumes the oldest entry and frees its place at once; Len must be
// positive.
func (r *Ring[T]) Pop() T {
	v := r.buf[r.head]
	r.head = r.at(1)
	r.n--
	return v
}

// Commit frees the taken entries and makes the staged ones visible.
func (r *Ring[T]) Commit() {
	r.head = r.at(r.taken)
	r.n += r.staged - r.taken
	r.taken, r.staged = 0, 0
}
