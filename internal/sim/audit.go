package sim

import (
	"fmt"
	"strings"
)

// The sleep-proof audit. Every component that sleeps does so on a
// hand-written proof that its next Eval+Commit would change nothing; a
// wrong proof shows only if some scenario happens to depend on the
// skipped work. In audit mode the kernel evaluates every component every
// cycle, the Add'ed set with Changed all ones, while still tracking who
// would be asleep, and fails the run the first time a would-be sleeper
// Sets a register to a new value, or, in the ordered tail, wakes a
// component (an IP-side call on an NI does): that is exactly what
// sleeping would have lost. Evaluations still counts only the components
// that would have run, so an audited run reproduces its unaudited counts.

// audit is the state of an audited run.
type audit struct {
	fail   func(msg string)
	failed bool
	wakes  int      // Activity.Wake calls so far
	last   Activity // the latest one's component
}

// Audit puts s in the sleep-proof audit mode tests run scenarios under:
// fail is called once, at the first cycle in which a component the
// kernel would have left asleep Sets a register to a new value or an
// ordered one wakes a component, with a message naming the component,
// the register or the woken component, and the cycle. Call it before
// the first Step.
func (s *Simulator) Audit(fail func(msg string)) { s.audit = &audit{fail: fail} }

// woke notes a Wake of a's component.
func (au *audit) woke(a Activity) {
	au.wakes++
	au.last = a
}

// report fails the run, once.
func (au *audit) report(format string, args ...any) {
	if !au.failed {
		au.failed = true
		au.fail(fmt.Sprintf(format, args...))
	}
}

// auditPhase is phase in audit mode: it runs every Add'ed component and
// counts only the awake ones. A would-be sleeper that puts a register on
// the write list has Set it to a new value — the write sleeping loses.
func (s *Simulator) auditPhase(eval bool, cycle uint64) (n uint64) {
	for i, c := range s.components {
		asleep := s.awake[i>>6]&(1<<(i&63)) == 0
		if !asleep {
			n++
		}
		written := len(s.written)
		if eval {
			s.changed[i] = ^uint32(0)
			c.Eval(cycle)
		} else {
			c.Commit()
		}
		if asleep && len(s.written) > written {
			s.audit.report("sleep audit: cycle %d: %s would be asleep but set %s",
				cycle, c.Name(), s.written[written].describe())
		}
	}
	return n
}

// auditOrdered runs every ordered component in registration order, each
// Eval (or Commit) checked like auditPhase's, and also for a Wake.
func (s *Simulator) auditOrdered(eval bool, cycle uint64) {
	for i, c := range s.ordered {
		asleep := s.ordAwake[i>>6]&(1<<(i&63)) == 0
		written, wakes := len(s.written), s.audit.wakes
		if eval {
			c.Eval(cycle)
		} else {
			c.Commit()
		}
		switch {
		case !asleep:
		case len(s.written) > written:
			s.audit.report("sleep audit: cycle %d: %s would be asleep but set %s",
				cycle, c.Name(), s.written[written].describe())
		case s.audit.wakes > wakes:
			s.audit.report("sleep audit: cycle %d: %s would be asleep but woke %s",
				cycle, c.Name(), s.audit.last.name())
		}
	}
}

// describe names r by creation order, type and readers, with the value
// Set this cycle.
func (r *Reg[T]) describe() string {
	var names []string
	for _, rd := range r.readers {
		names = append(names, r.s.components[rd.idx].Name())
	}
	readers := "no component"
	if len(names) > 0 {
		readers = strings.Join(names, ", ")
	}
	return fmt.Sprintf("register #%d (%T, read by %s) to %+v", r.id, r.cur, readers, r.next)
}
