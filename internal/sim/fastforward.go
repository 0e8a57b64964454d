package sim

import "math/bits"

// Fast-forward has one rule: when no Add'ed or ordered component is
// awake, Run moves the clock to the earliest ordered timer (see
// SleepUntil), or to the end of its budget, without evaluating
// anything; otherwise it steps. With every component asleep the
// platform is at a fixed point — each sleeper proved its next
// Eval+Commit changes nothing — so only a timer falling due can end
// the stretch. A component that must act at a known cycle (a fault
// window, a possible stall declaration) sleeps until then; one that
// never sleeps blocks every skip. A register the host Set between
// steps is not latched yet, so it, too, makes Run step.

// EnableFastForward lets Run skip cycles while nothing can act.
func (s *Simulator) EnableFastForward() { s.ffOn = true }

// DisableFastForward pins Run to cycle-accurate execution.
func (s *Simulator) DisableFastForward() { s.ffOn = false }

// SkippedCycles returns the cycles Run skipped so far; Cycle() counts them.
func (s *Simulator) SkippedCycles() uint64 { return s.ffSkipped }

// SkipBlocker names what kept Run's latest fast-forward attempt from
// skipping: the first awake Add'ed component, else the first awake
// ordered component, else a register written between steps, else the
// ordered component whose timer is due at that cycle ("" if that
// attempt skipped).
func (s *Simulator) SkipBlocker() string { return s.blocker }

// AddFastForwardHook registers h to run after each skip from `from` to
// `to`, for observers that sample every cycle; no wire moves in between.
func (s *Simulator) AddFastForwardHook(h func(from, to uint64)) {
	s.ffHooks = append(s.ffHooks, h)
}

// tryFastForward skips to the earliest ordered timer, at most budget
// cycles, and returns the count (0 = step normally).
func (s *Simulator) tryFastForward(budget uint64) uint64 {
	if c := firstAwake(s.components, s.awake); c != nil {
		s.blocker = c.Name()
		return 0
	}
	if c := firstAwake(s.ordered, s.ordAwake); c != nil {
		s.blocker = c.Name()
		return 0
	}
	for _, l := range s.lists {
		if l.len() > 0 {
			s.blocker = l.describe(0)
			return 0
		}
	}
	now, skip := s.cycle, budget
	if t, ok := s.nextTimer(); ok {
		if t.due <= now {
			s.blocker = s.ordered[t.idx].Name()
			return 0
		}
		skip = min(skip, t.due-now)
	}
	s.blocker = ""
	s.cycle += skip
	s.ffSkipped += skip
	for _, h := range s.ffHooks {
		h(now, s.cycle)
	}
	return skip
}

// firstAwake returns the first component of comps in the awake set
// awake, nil if none is.
func firstAwake(comps []Component, awake []uint64) Component {
	for w, b := range awake {
		if b != 0 {
			return comps[w<<6|bits.TrailingZeros64(b)]
		}
	}
	return nil
}
