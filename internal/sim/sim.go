// Package sim provides a synchronous, two-phase, cycle-accurate simulation
// kernel used by all hardware models in this repository.
//
// The kernel models a single clock domain the way synthesizable RTL behaves:
// every component computes its next state from the *current* values of all
// registers (the Eval phase), and only afterwards is all state advanced at
// once (the Commit phase), exactly like flip-flops latching on a clock edge.
// Because Eval never observes a value written in the same cycle, the result
// is independent of component evaluation order and therefore deterministic.
//
// The kernel is activity-driven: only registers Set to a new value latch,
// through one write list per register type that the clock edge latches
// in one call, and an Add'ed component may sleep until a register it
// reads changes or a host call wakes it. Awake components run in
// registration order. A component with state of its own to latch is a
// Committer, and its Commit runs only in the cycles it asks for one
// (Activity.CommitNext), from its Eval or from an IP-side call.
//
// Components that deliberately break the order-independence contract —
// traffic endpoints that drain NI queues, fault injectors that override
// pending wire values — register through AddOrdered instead of Add and
// run, in registration order, after the Add'ed set in both phases. They
// sleep on the same kind of awake set, until a Wake, until the cycle
// they named in SleepUntil, or until a register they watch is written
// (Reg.WakesOnSet). With fast-forward armed, Run skips cycles while no
// component is awake, up to the earliest ordered timer (see
// fastforward.go). The kernel is single-threaded: every phase and every
// probe runs on the stepping goroutine. The simulator also keeps the
// provenance of the payload words in flight, which the wire carries only
// as a handle (see provenance.go).
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Component is a piece of synchronous hardware. Eval computes next state
// from current state. Eval must not observe any state written during the
// same Eval phase (use Reg for all inter-component signals to get this
// for free).
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Eval computes the next state for the current cycle.
	Eval(cycle uint64)
}

// Committer is a component with state of its own to latch after the Eval
// phase (queue mutations, two-phase buffers). Its Commit runs in a cycle
// only if it asked for that cycle's commit through Activity.CommitNext.
type Committer interface {
	Component
	// Commit latches the state Eval and IP-side calls left pending.
	Commit()
}

// Reg is a single-cycle register (a bank of flip-flops) holding a value of
// type T. Get returns the currently latched value; Set schedules the value
// to appear after the next clock edge.
type Reg[T comparable] struct {
	cur, next T
	dirty     bool  // on its type's write list this cycle
	id        int32 // creation order, to name the register in an audit
	list      *regList[T]
	readers   []reader // woken by a latched change, see Wakes
}

// reader is one entry of a register's reader list: the component a
// latched change wakes and the bit it marks in the component's Changed.
type reader struct {
	idx int32
	bit uint32
}

// regList is the write list of every register of one type T: the
// registers Set to a new value this cycle. The latch walks it in one
// call, so the clock edge makes one interface call per register type.
type regList[T comparable] struct {
	s    *Simulator
	regs []*Reg[T]
}

// latcher is the untyped view of one type's write list.
type latcher interface {
	latch()                // latch every register on the list and empty it
	len() int              // registers on the list
	describe(i int) string // the i-th one, for the audit (see audit.go) and SkipBlocker
}

// NewReg returns a register of s initialized to v, on s's write list for
// T (made at the first register of that type).
func NewReg[T comparable](s *Simulator, v T) *Reg[T] {
	s.regs++
	key := any((*T)(nil)) // one map key per type T
	l, ok := s.listOf[key].(*regList[T])
	if !ok {
		l = &regList[T]{s: s}
		s.listOf[key] = l
		s.lists = append(s.lists, l)
	}
	return &Reg[T]{cur: v, next: v, id: int32(s.regs), list: l}
}

// Get returns the currently latched value.
func (r *Reg[T]) Get() T { return r.cur }

// Set schedules v to become visible after the next clock edge. Setting
// the latched value on an unwritten register is a no-op; the first Set of
// a new value puts the register on its type's write list.
func (r *Reg[T]) Set(v T) {
	if !r.dirty {
		if v == r.cur {
			return
		}
		r.dirty = true
		r.list.regs = append(r.list.regs, r)
	}
	r.next = v
}

// Peek returns the pending next value if one was Set this cycle, else the
// current value. Intended for testing, tracing and the ordered tail.
func (r *Reg[T]) Peek() T {
	if r.dirty {
		return r.next
	}
	return r.cur
}

// Wakes registers a as a reader of r: a latched change of r wakes a's
// component and sets bit input of its Changed. It does so now too, so a
// reader wired up mid-run sees what r holds.
func (r *Reg[T]) Wakes(a Activity, input int) {
	rd := reader{idx: a.idx, bit: 1 << input}
	r.readers = append(r.readers, rd)
	r.list.s.wake(rd)
}

// WakesOnSet registers ordered component a to wake in any Step in which
// r holds a write as the ordered phase starts — one from an Add'ed
// component's Eval or from the host between steps: the ordered twin of
// Wakes, for a component that overrides r's pending value (Peek, then
// Set) and sleeps while r holds nothing to act on. a must be the only
// ordered component, and no Commit, that writes r. The check runs once
// per Step, so Set pays nothing for it.
func (r *Reg[T]) WakesOnSet(a Activity) {
	if !a.ordered {
		panic("sim: WakesOnSet with an Add'ed component")
	}
	r.list.s.watches = append(r.list.s.watches, watch{r, a.idx})
}

// written reports whether r holds a write this cycle.
func (r *Reg[T]) written() bool { return r.dirty }

// watch is one WakesOnSet registration: ordered component idx and the
// register whose write wakes it.
type watch struct {
	reg interface{ written() bool }
	idx int32
}

// wakeWatchers wakes, before the ordered phase, the component of every
// watch whose register holds a write. It leaves a pending SleepUntil in
// place, so the Eval it causes can renew the same timer without pushing
// it again.
func (s *Simulator) wakeWatchers() {
	for _, w := range s.watches {
		if w.reg.written() {
			s.ordAwake[w.idx>>6] |= 1 << (w.idx & 63)
		}
	}
}

// latch commits every written register of the list. A later Set this
// cycle may have written the held value back (an ordered-tail override):
// then nothing changes and no reader wakes.
func (l *regList[T]) latch() {
	for _, r := range l.regs {
		r.dirty = false
		if r.next == r.cur {
			continue
		}
		r.cur = r.next
		for _, rd := range r.readers {
			l.s.wake(rd)
		}
	}
	l.regs = l.regs[:0]
}

func (l *regList[T]) len() int { return len(l.regs) }

// Activity is a component's handle on the kernel's awake sets: the Add'ed
// set's, or the ordered tail's (see AddOrdered).
type Activity struct {
	s       *Simulator
	idx     int32
	ordered bool
}

// Changed returns, and clears, the inputs whose registers latched a new
// value since the last call: an unchanged input holds what it held then.
// Only Add'ed components have inputs (see Reg.Wakes).
func (a Activity) Changed() uint32 {
	c := a.s.changed[a.idx]
	a.s.changed[a.idx] = 0
	return c
}

// Sleep takes the component out of the awake set until something wakes
// it, cancelling a pending SleepUntil. Call it only when one more
// Eval+Commit would change nothing: no owned register takes a new
// value, no counter or queue moves.
func (a Activity) Sleep() {
	if a.ordered {
		a.s.due[a.idx] = noTimer
		a.s.ordAwake[a.idx>>6] &^= 1 << (a.idx & 63)
		return
	}
	a.s.awake[a.idx>>6] &^= 1 << (a.idx & 63)
}

// Wake puts the component back in the awake set, beating an earlier Sleep
// or SleepUntil; exported methods that mutate a component outside its
// Eval call it.
func (a Activity) Wake() {
	if a.s.audit != nil {
		a.s.audit.woke(a)
	}
	if a.ordered {
		a.s.due[a.idx] = noTimer
		a.s.ordAwake[a.idx>>6] |= 1 << (a.idx & 63)
		return
	}
	a.s.awake[a.idx>>6] |= 1 << (a.idx & 63)
}

// CommitNext asks for the component's Commit in this cycle's commit
// phase, or, between steps and after its turn in the phase, in the next
// Step's. A Committer calls it from its Eval, or from an IP-side method
// that leaves state for Commit; a component that is no Committer must
// not.
func (a Activity) CommitNext() {
	if a.ordered {
		a.s.ordCommit[a.idx>>6] |= 1 << (a.idx & 63)
		return
	}
	a.s.commit[a.idx>>6] |= 1 << (a.idx & 63)
}

// SleepUntil takes an ordered component out of the awake set until the
// Step of cycle due, or an earlier Wake; it replaces a pending
// SleepUntil. Call it only when every Eval+Commit before cycle due would
// change nothing. A due at or before the next Step's cycle wakes the
// component for that Step; the largest uint64 is never due.
func (a Activity) SleepUntil(due uint64) {
	if !a.ordered {
		panic("sim: SleepUntil on an Add'ed component")
	}
	s := a.s
	s.ordAwake[a.idx>>6] &^= 1 << (a.idx & 63)
	if s.due[a.idx] == due {
		return // already pending, or never due
	}
	s.due[a.idx] = due
	s.timers.push(timer{due: due, idx: a.idx})
}

// name returns the name of a's component.
func (a Activity) name() string {
	if a.ordered {
		return a.s.ordered[a.idx].Name()
	}
	return a.s.components[a.idx].Name()
}

// wake wakes rd's component and marks rd's input changed.
func (s *Simulator) wake(rd reader) {
	s.awake[rd.idx>>6] |= 1 << (rd.idx & 63)
	s.changed[rd.idx] |= rd.bit
}

// Probe is called after every Commit with the cycle number that just
// completed. Probes observe fully settled state.
type Probe func(cycle uint64)

// Simulator owns the clock, the component lists and the write lists.
type Simulator struct {
	components []Component
	ordered    []Component
	commits    []Committer     // by component: its Committer, or nil
	ordCommits []Committer     // likewise for ordered
	awake      []uint64        // bit i: components[i] runs
	ordAwake   []uint64        // bit i: ordered[i] runs
	commit     []uint64        // bit i: commits[i] asked for its Commit
	ordCommit  []uint64        // bit i: ordCommits[i] asked for its Commit
	due        []uint64        // by ordered component: its pending SleepUntil, or noTimer
	timers     timerHeap       // the SleepUntil dues, see timer.go
	changed    []uint32        // by component, see Activity.Changed
	watches    []watch         // see WakesOnSet
	lists      []latcher       // one write list per register type, in creation order
	listOf     map[any]latcher // the same lists by type, see NewReg
	regs       int             // registers made by NewReg
	probes     []Probe
	prov       provenance // see provenance.go
	cycle      uint64
	stepping   bool // between the first Eval and the clock edge of Step

	evals, offered uint64 // see Evaluations

	audit *audit // the sleep-proof audit, see Audit; nil outside it

	// Fast-forward state (see fastforward.go).
	ffOn      bool
	ffHooks   []func(from, to uint64)
	ffSkipped uint64
	blocker   string

	stopped    atomic.Bool // read once per cycle by Run and RunUntil
	stopMu     sync.Mutex  // guards stopReason
	stopReason string
}

// New returns an empty simulator at cycle 0.
func New() *Simulator {
	return &Simulator{listOf: map[any]latcher{}, prov: provenance{hold: minProvenanceHold}}
}

// Add registers a component with the simulator, awake, and returns its
// Activity handle; components that never sleep ignore it. Components
// added this way are evaluated in no promised order: their Eval must only
// read foreign state through Reg.Get and write through Regs (or plain
// state) they own, so that the result is independent of evaluation order.
func (s *Simulator) Add(c Component) Activity {
	i := int32(len(s.components))
	s.components = append(s.components, c)
	cm, _ := c.(Committer)
	s.commits = append(s.commits, cm)
	s.changed = append(s.changed, 0)
	if i&63 == 0 {
		s.awake = append(s.awake, 0)
		s.commit = append(s.commit, 0)
	}
	s.awake[i>>6] |= 1 << (i & 63)
	a := Activity{s: s, idx: i}
	bind(c, a)
	return a
}

// AddOrdered registers a component, awake, that depends on evaluation
// order: its Eval reads or writes state owned by other components (a
// traffic endpoint draining an NI queue, a fault injector overriding
// pending wire values via Peek/Set). The awake ordered components run in
// registration order after the Add'ed set, in both phases. The returned
// Activity sleeps and wakes the component like an Add'ed one's, and also
// has SleepUntil; components that never sleep ignore it.
func (s *Simulator) AddOrdered(c Component) Activity {
	i := int32(len(s.ordered))
	s.ordered = append(s.ordered, c)
	cm, _ := c.(Committer)
	s.ordCommits = append(s.ordCommits, cm)
	s.due = append(s.due, noTimer)
	if i&63 == 0 {
		s.ordAwake = append(s.ordAwake, 0)
		s.ordCommit = append(s.ordCommit, 0)
	}
	s.ordAwake[i>>6] |= 1 << (i & 63)
	a := Activity{s: s, idx: i, ordered: true}
	bind(c, a)
	return a
}

// bind hands a Func its Activity, through which it asks for its Commit.
func bind(c Component, a Activity) {
	if f, ok := c.(*Func); ok {
		f.act = a
	}
}

// phase runs Eval of every awake component of comps, whose awake set is
// awake, in order and counts them. It rereads the set, so a component
// woken in the phase at a later index runs too; only a visited component
// clears a full word.
func phase(comps []Component, awake []uint64, cycle uint64) (n uint64) {
	for w := range awake {
		if awake[w] == ^uint64(0) {
			for _, c := range comps[w<<6 : w<<6+64] {
				c.Eval(cycle)
			}
			n += 64
			continue
		}
		for b := awake[w]; b != 0; n++ {
			k := bits.TrailingZeros64(b)
			comps[w<<6|k].Eval(cycle)
			b = awake[w] >> k >> 1 << k << 1
		}
	}
	return n
}

// commitPhase runs, in order, the Commit of every component of cs that
// asked for it in req, clearing each request before its Commit. Like
// phase it rereads the requests: one made in the phase at a later index
// runs in it, one at an index already passed stays for the next Step.
func commitPhase(cs []Committer, req []uint64) {
	for w := range req {
		for b := req[w]; b != 0; {
			k := bits.TrailingZeros64(b)
			req[w] &^= 1 << k
			cs[w<<6|k].Commit()
			b = req[w] >> k >> 1 << k << 1
		}
	}
}

// AddProbe registers a probe run after each cycle's commit phase.
func (s *Simulator) AddProbe(p Probe) {
	s.probes = append(s.probes, p)
}

// Cycle returns the number of fully completed cycles.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// EvalCycle returns the cycle of the most recent Eval phase — Cycle()
// mid-step, Cycle()-1 between steps, 0 before the first — so a sleeping
// component needs no copy of the clock to stamp host submissions.
func (s *Simulator) EvalCycle() uint64 {
	if s.stepping || s.cycle == 0 {
		return s.cycle
	}
	return s.cycle - 1
}

// Evaluations returns the Add'ed-component evaluations made so far and
// those offered (components × stepped cycles); both are deterministic.
func (s *Simulator) Evaluations() (evaluated, offered uint64) { return s.evals, s.offered }

// Stop requests that the simulation halt after the current cycle completes.
// It is safe to call from another goroutine (a signal handler) while Run
// is stepping; the first caller's reason is retained.
func (s *Simulator) Stop(reason string) {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if !s.stopped.Load() {
		s.stopReason = reason
		s.stopped.Store(true)
	}
}

// Stopped reports whether Stop has been called, and why.
func (s *Simulator) Stopped() (bool, string) {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	return s.stopped.Load(), s.stopReason
}

// Step advances the simulation by exactly one clock cycle: the ordered
// components whose SleepUntil fell due wake, then Eval of the awake
// Add'ed components, the wakes of written WakesOnSet registers, Eval of
// the awake ordered tail, then the requested Commits (Add'ed, then
// ordered), the latch of each register type's write list (waking
// readers of changed registers), probes.
func (s *Simulator) Step() {
	cycle := s.cycle
	s.fire(cycle)
	s.stepping = true
	if s.audit == nil {
		s.evals += phase(s.components, s.awake, cycle)
		if len(s.watches) > 0 {
			s.wakeWatchers()
		}
		phase(s.ordered, s.ordAwake, cycle)
		commitPhase(s.commits, s.commit)
		commitPhase(s.ordCommits, s.ordCommit)
	} else {
		s.evals += s.auditPhase(cycle)
		if len(s.watches) > 0 {
			s.wakeWatchers()
		}
		s.auditOrdered(cycle)
		s.auditCommits(s.commits, s.commit, cycle)
		s.auditCommits(s.ordCommits, s.ordCommit, cycle)
	}
	for _, l := range s.lists {
		l.latch()
	}
	s.stepping = false
	s.cycle++
	s.offered += uint64(len(s.components))
	for _, p := range s.probes {
		p(s.cycle)
	}
}

// Run advances the simulation by n cycles or until Stop is called,
// whichever comes first, and returns the number of cycles executed.
// Cycles skipped by fast-forward (see EnableFastForward) count as
// executed. Step and RunUntil never fast-forward; only Run does.
func (s *Simulator) Run(n uint64) uint64 {
	var done uint64
	for done < n && !s.stopped.Load() {
		if s.ffOn {
			if skip := s.tryFastForward(n - done); skip > 0 {
				done += skip
				continue
			}
		}
		s.Step()
		done++
	}
	return done
}

// RunUntil steps the simulation until cond returns true (checked after each
// cycle) or the cycle budget is exhausted. It returns the cycle at which the
// condition first held and true, or the current cycle and false on timeout.
func (s *Simulator) RunUntil(cond func() bool, budget uint64) (uint64, bool) {
	for i := uint64(0); i < budget; i++ {
		if s.stopped.Load() {
			return s.cycle, false
		}
		s.Step()
		if cond() {
			return s.cycle, true
		}
	}
	return s.cycle, cond()
}

// ComponentNames returns the sorted names of all registered components
// (Add'ed set and ordered tail), useful for debugging platform assembly.
func (s *Simulator) ComponentNames() []string {
	names := make([]string, 0, len(s.components)+len(s.ordered))
	for _, c := range s.components {
		names = append(names, c.Name())
	}
	for _, c := range s.ordered {
		names = append(names, c.Name())
	}
	sort.Strings(names)
	return names
}

// Func wraps plain functions as a Component, for probes and test stimuli
// that need to participate in the Eval/Commit protocol. A Func with
// OnCommit asks for its Commit in every Eval.
type Func struct {
	Label    string
	OnEval   func(cycle uint64)
	OnCommit func()

	act Activity // set by Add or AddOrdered
}

// Name implements Component.
func (f *Func) Name() string { return f.Label }

// Eval implements Component.
func (f *Func) Eval(cycle uint64) {
	if f.OnEval != nil {
		f.OnEval(cycle)
	}
	if f.OnCommit != nil {
		f.act.CommitNext()
	}
}

// Commit implements Committer.
func (f *Func) Commit() {
	if f.OnCommit != nil {
		f.OnCommit()
	}
}

// String renders a short status line (awake: Add'ed components due next).
func (s *Simulator) String() string {
	awake := 0
	for _, w := range s.awake {
		awake += bits.OnesCount64(w)
	}
	return fmt.Sprintf("sim{cycle=%d components=%d+%d awake=%d regs=%d}",
		s.cycle, len(s.components), len(s.ordered), awake, s.regs)
}
