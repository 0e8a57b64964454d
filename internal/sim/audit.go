package sim

import (
	"fmt"
	"strings"
)

// The sleep-proof audit. Every component that sleeps does so on a
// hand-written proof that its next Eval would change nothing, and every
// Committer that does not ask for its Commit on a proof that the Commit
// would change nothing; a wrong proof shows only if some scenario
// happens to depend on the skipped work. In audit mode the kernel
// evaluates every component every cycle, the Add'ed set with Changed
// all ones, and commits every Committer, while still tracking who would
// be asleep and who asked, and fails the run the first time a would-be
// sleeper, or a Commit nobody asked for, Sets a register to a new value,
// or, in the ordered tail and in Commit, wakes a component (an IP-side
// call on an NI does): that is exactly what skipping would have lost.
// Evaluations still counts only the components that would have run, so
// an audited run reproduces its unaudited counts.

// audit is the state of an audited run.
type audit struct {
	fail   func(msg string)
	failed bool
	wakes  int      // Activity.Wake calls so far
	last   Activity // the latest one's component
	marks  []int    // write-list lengths before the audited call
}

// Audit puts s in the sleep-proof audit mode tests run scenarios under:
// fail is called once, at the first cycle in which a component the
// kernel would have left asleep Sets a register to a new value or an
// ordered one wakes a component, or a Commit the kernel would have
// skipped does either, with a message naming the component, the
// register or the woken component, and the cycle. Call it before the
// first Step.
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

// mark notes the length of every write list before an audited call.
func (s *Simulator) mark() {
	au := s.audit
	au.marks = au.marks[:0]
	for _, l := range s.lists {
		au.marks = append(au.marks, l.len())
	}
}

// wrote describes the first register the call since mark put on a write
// list, "" if none.
func (s *Simulator) wrote() string {
	for i, l := range s.lists {
		at := 0
		if i < len(s.audit.marks) {
			at = s.audit.marks[i]
		}
		if l.len() > at {
			return l.describe(at)
		}
	}
	return ""
}

// auditPhase is phase in audit mode: it runs every Add'ed component and
// counts only the awake ones. A would-be sleeper that puts a register on
// a write list has Set it to a new value — the write sleeping loses.
func (s *Simulator) auditPhase(cycle uint64) (n uint64) {
	for i, c := range s.components {
		asleep := s.awake[i>>6]&(1<<(i&63)) == 0
		if !asleep {
			n++
		}
		s.mark()
		s.changed[i] = ^uint32(0)
		c.Eval(cycle)
		if !asleep {
			continue
		}
		if reg := s.wrote(); reg != "" {
			s.audit.report("sleep audit: cycle %d: %s would be asleep but set %s", cycle, c.Name(), reg)
		}
	}
	return n
}

// auditOrdered runs every ordered component's Eval in registration
// order, each checked like auditPhase's, and also for a Wake.
func (s *Simulator) auditOrdered(cycle uint64) {
	for i, c := range s.ordered {
		asleep := s.ordAwake[i>>6]&(1<<(i&63)) == 0
		s.mark()
		wakes := s.audit.wakes
		c.Eval(cycle)
		if asleep {
			s.audit.check(cycle, c.Name(), "would be asleep but", s.wrote(), wakes)
		}
	}
}

// auditCommits is commitPhase in audit mode: it runs every Committer of
// cs in order, and a Commit that req does not hold must neither Set a
// register to a new value nor wake a component.
func (s *Simulator) auditCommits(cs []Committer, req []uint64, cycle uint64) {
	for i, c := range cs {
		if c == nil {
			continue
		}
		asked := req[i>>6]&(1<<(i&63)) != 0
		req[i>>6] &^= 1 << (i & 63)
		s.mark()
		wakes := s.audit.wakes
		c.Commit()
		if !asked {
			s.audit.check(cycle, c.Name(), "did not ask for its commit but", s.wrote(), wakes)
		}
	}
}

// check reports a call that should have changed nothing, by component
// name, if it set reg (non-empty) or made Wakes since wakes.
func (au *audit) check(cycle uint64, name, what, reg string, wakes int) {
	switch {
	case reg != "":
		au.report("sleep audit: cycle %d: %s %s set %s", cycle, name, what, reg)
	case au.wakes > wakes:
		au.report("sleep audit: cycle %d: %s %s woke %s", cycle, name, what, au.last.name())
	}
}

// describe names the list's i-th register by creation order, type and
// readers, with the value Set this cycle.
func (l *regList[T]) describe(i int) string {
	r := l.regs[i]
	var names []string
	for _, rd := range r.readers {
		names = append(names, l.s.components[rd.idx].Name())
	}
	readers := "no component"
	if len(names) > 0 {
		readers = strings.Join(names, ", ")
	}
	return fmt.Sprintf("register #%d (%T, read by %s) to %+v", r.id, r.cur, readers, r.next)
}
