package sim

import (
	"fmt"
	"strings"
)

// The sleep-proof audit. Every component that sleeps does so on a
// hand-written proof that its next Eval+Commit would change nothing; a
// wrong proof shows only if some scenario happens to depend on the
// skipped work. In audit mode the kernel evaluates every Add'ed
// component every cycle, with Changed all ones, while still tracking who
// would be asleep, and fails the run the first time a would-be sleeper
// Sets a register to a new value: that write is exactly what sleeping
// would have lost. Evaluations still counts only the components that
// would have run, so an audited run reproduces its unaudited counts.

// audit is the state of an audited run.
type audit struct {
	fail   func(msg string)
	failed bool
}

// Audit puts s in the sleep-proof audit mode tests run scenarios under:
// fail is called once, at the first cycle in which a component the
// kernel would have left asleep Sets a register to a new value, with a
// message naming the component, the register and the cycle. Call it
// before the first Step.
func (s *Simulator) Audit(fail func(msg string)) { s.audit = &audit{fail: fail} }

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
		if asleep && len(s.written) > written && !s.audit.failed {
			s.audit.failed = true
			s.audit.fail(fmt.Sprintf("sleep audit: cycle %d: %s would be asleep but set %s",
				cycle, c.Name(), s.written[written].describe()))
		}
	}
	return n
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
