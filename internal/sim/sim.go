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
// and an Add'ed component may sleep until a register it reads changes or
// a host call wakes it. Awake components run in registration order.
//
// Components that deliberately break the order-independence contract —
// traffic endpoints that drain NI queues, fault injectors that override
// pending wire values — register through AddOrdered instead of Add and
// run, in registration order, after the Add'ed set in both phases; they
// never sleep. Sleeping is the kernel's only activity protocol: with
// fast-forward armed, Run skips cycles while no Add'ed component is awake
// (see fastforward.go). The kernel is single-threaded: every phase and every probe
// runs on the stepping goroutine. The simulator also keeps the provenance
// of the payload words in flight, which the wire carries only as a handle
// (see provenance.go).
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// Component is a piece of synchronous hardware. Eval computes next state
// from current state; Commit latches it. Eval must not observe any state
// written during the same Eval phase (use Reg for all inter-component
// signals to get this for free).
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Eval computes the next state for the current cycle.
	Eval(cycle uint64)
	// Commit latches the state computed by Eval.
	Commit()
}

// Reg is a single-cycle register (a bank of flip-flops) holding a value of
// type T. Get returns the currently latched value; Set schedules the value
// to appear after the next clock edge.
type Reg[T comparable] struct {
	cur, next T
	dirty     bool // on the simulator's write list this cycle
	s         *Simulator
	readers   []reader // woken by a latched change, see Wakes
}

// reader is one entry of a register's reader list: the component a
// latched change wakes and the bit it marks in the component's Changed.
type reader struct {
	idx int32
	bit uint32
}

// NewReg returns a register of s initialized to v.
func NewReg[T comparable](s *Simulator, v T) *Reg[T] {
	s.regs++
	return &Reg[T]{cur: v, next: v, s: s}
}

// Get returns the currently latched value.
func (r *Reg[T]) Get() T { return r.cur }

// Set schedules v to become visible after the next clock edge. Setting
// the latched value on an unwritten register is a no-op; the first Set of
// a new value puts the register on the write list the latch phase walks.
func (r *Reg[T]) Set(v T) {
	if !r.dirty {
		if v == r.cur {
			return
		}
		r.dirty = true
		r.s.written = append(r.s.written, r)
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
	r.s.wake(rd)
}

// latch commits a written register. A later Set this cycle may have
// written the held value back (an ordered-tail override): then nothing
// changes and no reader wakes.
func (r *Reg[T]) latch() {
	r.dirty = false
	if r.next == r.cur {
		return
	}
	r.cur = r.next
	for _, rd := range r.readers {
		r.s.wake(rd)
	}
}

// latcher is the untyped view of a written register.
type latcher interface{ latch() }

// Activity is an Add'ed component's handle on the kernel's awake set.
type Activity struct {
	s   *Simulator
	idx int32
}

// Changed returns, and clears, the inputs whose registers latched a new
// value since the last call: an unchanged input holds what it held then.
func (a Activity) Changed() uint32 {
	c := a.s.changed[a.idx]
	a.s.changed[a.idx] = 0
	return c
}

// Sleep takes the component out of the awake set until something wakes
// it. Call it only when one more Eval+Commit would change nothing: no
// owned register takes a new value, no counter or queue moves.
func (a Activity) Sleep() { a.s.awake[a.idx>>6] &^= 1 << (a.idx & 63) }

// Wake puts the component back in the awake set, beating an earlier Sleep;
// exported methods that mutate a component outside its Eval call it.
func (a Activity) Wake() { a.s.awake[a.idx>>6] |= 1 << (a.idx & 63) }

// wake wakes rd's component and marks rd's input changed.
func (s *Simulator) wake(rd reader) {
	s.awake[rd.idx>>6] |= 1 << (rd.idx & 63)
	s.changed[rd.idx] |= rd.bit
}

// Probe is called after every Commit with the cycle number that just
// completed. Probes observe fully settled state.
type Probe func(cycle uint64)

// Simulator owns the clock, the component list, and the write list.
type Simulator struct {
	components []Component
	ordered    []Component
	awake      []uint64  // bit i: components[i] runs
	changed    []uint32  // by component, see Activity.Changed
	written    []latcher // registers Set to a new value this cycle
	regs       int       // registers made by NewReg
	probes     []Probe
	prov       provenance // see provenance.go
	cycle      uint64
	stepping   bool // between the first Eval and the clock edge of Step

	evals, offered uint64 // see Evaluations

	// Fast-forward state (see fastforward.go).
	ffOn      bool
	gates     []gate
	ffHooks   []func(from, to uint64)
	ffSkipped uint64
	blocker   string

	stopMu     sync.Mutex
	stopped    bool
	stopReason string
}

// New returns an empty simulator at cycle 0.
func New() *Simulator { return &Simulator{prov: provenance{hold: minProvenanceHold}} }

// Add registers a component with the simulator, awake, and returns its
// Activity handle; components that never sleep ignore it. Components
// added this way are evaluated in no promised order: their Eval must only
// read foreign state through Reg.Get and write through Regs (or plain
// state) they own, so that the result is independent of evaluation order.
func (s *Simulator) Add(c Component) Activity {
	i := int32(len(s.components))
	s.components = append(s.components, c)
	s.changed = append(s.changed, 0)
	if i&63 == 0 {
		s.awake = append(s.awake, 0)
	}
	s.awake[i>>6] |= 1 << (i & 63)
	return Activity{s: s, idx: i}
}

// AddOrdered registers a component that depends on evaluation order:
// its Eval reads or writes state owned by other components (a traffic
// endpoint draining an NI queue, a fault injector overriding pending
// wire values via Peek/Set). Ordered components never sleep: every cycle
// they run in registration order after the Add'ed set, in both phases.
func (s *Simulator) AddOrdered(c Component) {
	s.ordered = append(s.ordered, c)
}

// phase runs Eval (or Commit) of every awake Add'ed component in order
// and counts them. It rereads the set, so a component woken in the phase
// at a later index runs too; only a visited component clears a full word.
func (s *Simulator) phase(eval bool, cycle uint64) (n uint64) {
	for w := range s.awake {
		if s.awake[w] == ^uint64(0) {
			for _, c := range s.components[w<<6 : w<<6+64] {
				if eval {
					c.Eval(cycle)
				} else {
					c.Commit()
				}
			}
			n += 64
			continue
		}
		for b := s.awake[w]; b != 0; n++ {
			k := bits.TrailingZeros64(b)
			if c := s.components[w<<6|k]; eval {
				c.Eval(cycle)
			} else {
				c.Commit()
			}
			b = s.awake[w] >> k >> 1 << k << 1
		}
	}
	return n
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
	if !s.stopped {
		s.stopped = true
		s.stopReason = reason
	}
}

// Stopped reports whether Stop has been called, and why.
func (s *Simulator) Stopped() (bool, string) {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	return s.stopped, s.stopReason
}

func (s *Simulator) halted() bool {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	return s.stopped
}

// Step advances the simulation by exactly one clock cycle: Eval of the
// awake Add'ed components, then of the ordered tail, Commit likewise, the
// latch of every written register (waking readers of changed ones), probes.
func (s *Simulator) Step() {
	cycle := s.cycle
	s.stepping = true
	s.evals += s.phase(true, cycle)
	for _, c := range s.ordered {
		c.Eval(cycle)
	}
	s.phase(false, cycle)
	for _, c := range s.ordered {
		c.Commit()
	}
	for _, r := range s.written {
		r.latch()
	}
	s.written = s.written[:0]
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
	for done < n && !s.halted() {
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
		if s.halted() {
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
// that need to participate in the Eval/Commit protocol.
type Func struct {
	Label    string
	OnEval   func(cycle uint64)
	OnCommit func()
}

// Name implements Component.
func (f *Func) Name() string { return f.Label }

// Eval implements Component.
func (f *Func) Eval(cycle uint64) {
	if f.OnEval != nil {
		f.OnEval(cycle)
	}
}

// Commit implements Component.
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
