package sim

import "math/bits"

// Fast-forward: with no Add'ed component awake, the platform is at a
// fixed point (every sleeper proved its next Eval+Commit changes nothing).
// Only the awake ordered components, the ordered timers and the gates
// can still act; when the awake ordered components and the gates are
// quiet, Run moves the clock to the earliest of their Untils and of the
// ordered timers (see SleepUntil) without evaluating anything. A
// sleeping ordered component is quiet until its timer is due.
// Default-deny: an Add'ed component that never sleeps, or an awake
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
// own inertness while awake; Run asks only when no Add'ed component is
// awake, and only the awake ordered components.
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
// skipping: the first awake Add'ed component, else the first awake
// ordered component that was not quiet, else an ordered component whose
// timer is due now, else the first gate that was not quiet ("" if that
// attempt skipped).
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
	// bound applies one Quiescence to skip, false if it forbids skipping.
	bound := func(q Quiescence) bool {
		if !q.Quiet || q.Until != 0 && q.Until <= now {
			return false
		}
		if q.Until != 0 {
			skip = min(skip, q.Until-now)
		}
		return true
	}
	for w, b := range s.ordAwake {
		for ; b != 0; b &= b - 1 {
			c := s.ordered[w<<6|bits.TrailingZeros64(b)]
			s.blocker = c.Name()
			qc, ok := c.(Quiescer)
			if !ok || !bound(qc.Quiescence(now)) {
				return 0
			}
		}
	}
	if t, ok := s.nextTimer(); ok {
		if t.due <= now {
			s.blocker = s.ordered[t.idx].Name()
			return 0
		}
		skip = min(skip, t.due-now)
	}
	for _, g := range s.gates {
		s.blocker = g.name
		if !bound(g.q(now)) {
			return 0
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
