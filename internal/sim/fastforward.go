package sim

import "math/bits"

// Fast-forward: with no Add'ed component awake, the platform is at a
// fixed point (every sleeper proved its next Eval+Commit changes nothing).
// Only the ordered tail and the gates can still act; when all are quiet,
// Run moves the clock to their earliest Until without evaluating
// anything. Default-deny: an Add'ed component that never sleeps, or an
// ordered one that is no Quiescer, blocks every skip.

// Quiescence answers "may Run skip while every Add'ed component sleeps?".
// Quiet: Eval and Commit would write no register, move no counter, draw
// no random number, emit nothing. Until is the first cycle whose Step
// must execute for real (an event, a fault window); 0 means unbounded.
type Quiescence struct {
	Quiet bool
	Until uint64
}

// Quiescer is implemented by ordered components that can prove their
// own inertness; Run asks only when the awake set is empty.
type Quiescer interface {
	Quiescence(now uint64) Quiescence
}

// QuiescenceFunc is a gate registered with AddQuiescer: a platform-level
// condition no component owns.
type QuiescenceFunc func(now uint64) Quiescence

type gate struct {
	name string
	q    QuiescenceFunc
}

// EnableFastForward lets Run skip cycles while nothing can act.
func (s *Simulator) EnableFastForward() { s.ffOn = true }

// DisableFastForward pins Run to cycle-accurate execution.
func (s *Simulator) DisableFastForward() { s.ffOn = false }

// SkippedCycles returns the cycles Run skipped so far; Cycle() counts them.
func (s *Simulator) SkippedCycles() uint64 { return s.ffSkipped }

// SkipBlocker names what kept Run's latest fast-forward attempt from
// skipping: the first awake Add'ed component, else the first ordered
// component or gate that was not quiet ("" if that attempt skipped).
func (s *Simulator) SkipBlocker() string { return s.blocker }

// AddQuiescer registers a named gate; every gate must be quiet to skip.
func (s *Simulator) AddQuiescer(name string, g QuiescenceFunc) {
	s.gates = append(s.gates, gate{name, g})
}

// AddFastForwardHook registers h to run after each skip from `from` to
// `to`, for observers that sample every cycle; no wire moves in between.
func (s *Simulator) AddFastForwardHook(h func(from, to uint64)) {
	s.ffHooks = append(s.ffHooks, h)
}

// tryFastForward skips as many cycles as the ordered tail and the gates
// allow, at most budget, and returns the count (0 = step normally).
func (s *Simulator) tryFastForward(budget uint64) uint64 {
	for w, b := range s.awake {
		if b != 0 {
			s.blocker = s.components[w<<6|bits.TrailingZeros64(b)].Name()
			return 0
		}
	}
	now, skip := s.cycle, budget
	for i := range len(s.ordered) + len(s.gates) {
		var q Quiescence
		if i < len(s.ordered) {
			c := s.ordered[i]
			s.blocker = c.Name()
			if qc, ok := c.(Quiescer); ok {
				q = qc.Quiescence(now)
			}
		} else {
			g := s.gates[i-len(s.ordered)]
			s.blocker, q = g.name, g.q(now)
		}
		if !q.Quiet || q.Until != 0 && q.Until <= now {
			return 0
		}
		if q.Until != 0 {
			skip = min(skip, q.Until-now)
		}
	}
	s.blocker = ""
	s.cycle += skip
	s.ffSkipped += skip
	for _, h := range s.ffHooks {
		h(now, s.cycle)
	}
	return skip
}
