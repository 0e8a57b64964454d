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
// Components that deliberately break the order-independence contract —
// traffic endpoints that drain NI queues, fault injectors that override
// pending wire values — register through AddOrdered instead of Add and
// run, in registration order, after the Add'ed set in both phases. The
// kernel is single-threaded: every phase and every probe runs on the
// stepping goroutine.
package sim

import (
	"fmt"
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
// to appear after the next Commit. A Reg must be committed exactly once per
// cycle, which the Simulator does for registers created via NewReg.
type Reg[T any] struct {
	cur, next T
	dirty     bool
}

// NewReg returns a register initialized to v, registered with s so that it
// is committed automatically every cycle.
func NewReg[T any](s *Simulator, v T) *Reg[T] {
	r := &Reg[T]{cur: v, next: v}
	s.addReg(r)
	return r
}

// Get returns the currently latched value.
func (r *Reg[T]) Get() T { return r.cur }

// Set schedules v to become visible after the next clock edge.
func (r *Reg[T]) Set(v T) {
	r.next = v
	r.dirty = true
}

// Peek returns the pending next value if one was Set this cycle, else the
// current value. Intended for testing and tracing only.
func (r *Reg[T]) Peek() T {
	if r.dirty {
		return r.next
	}
	return r.cur
}

func (r *Reg[T]) commit() {
	if r.dirty {
		r.cur = r.next
		r.dirty = false
	}
}

// committer is the untyped view of a register used by the simulator.
type committer interface{ commit() }

// Probe is called after every Commit with the cycle number that just
// completed. Probes observe fully settled state.
type Probe func(cycle uint64)

// Simulator owns the clock, the component list, and all registers.
type Simulator struct {
	components []Component
	ordered    []Component
	regs       []committer
	probes     []Probe
	cycle      uint64

	// quiescers is index-aligned with components: quiescers[i] is
	// non-nil iff components[i] implements Quiescer.
	quiescers []Quiescer

	// Fast-forward state (see fastforward.go). nonQuiescers counts
	// registered components — Add'ed and ordered — that do not
	// implement Quiescer; any such component pins the simulator to
	// cycle-accurate execution (default-deny).
	nonQuiescers int
	gates        []QuiescenceFunc
	forwarders   []FastForwarder
	ffHooks      []FastForwardHook
	ffPeriod     uint64
	ffSettle     uint64
	ffLastBusy   uint64
	ffSkipped    uint64
	ffQuiet      bool
	ffHorizon    uint64
	ffBusy       func(uint64) Quiescence

	stopMu     sync.Mutex
	stopped    bool
	stopReason string
}

// New returns an empty simulator at cycle 0.
func New() *Simulator { return &Simulator{} }

// Add registers a component with the simulator. Components added this way
// are evaluated in no promised order: their Eval must only read foreign
// state through Reg.Get and write through Regs (or plain state) they own,
// so that the result is independent of evaluation order.
func (s *Simulator) Add(c Component) {
	s.components = append(s.components, c)
	q, _ := c.(Quiescer)
	s.quiescers = append(s.quiescers, q)
	if q == nil {
		s.nonQuiescers++
	}
	if f, ok := c.(FastForwarder); ok {
		s.forwarders = append(s.forwarders, f)
	}
	s.ffQuiet = false
}

// AddOrdered registers a component that depends on evaluation order:
// its Eval reads or writes state owned by other components (a traffic
// endpoint draining an NI queue, a fault injector overriding pending
// wire values via Peek/Set). Ordered components run in registration
// order after all Add'ed components have finished each phase.
func (s *Simulator) AddOrdered(c Component) {
	s.ordered = append(s.ordered, c)
	if _, ok := c.(Quiescer); !ok {
		s.nonQuiescers++
	}
	if f, ok := c.(FastForwarder); ok {
		s.forwarders = append(s.forwarders, f)
	}
	s.ffQuiet = false
}

func (s *Simulator) addReg(r committer) {
	s.regs = append(s.regs, r)
}

// AddProbe registers a probe run after each cycle's commit phase.
func (s *Simulator) AddProbe(p Probe) {
	s.probes = append(s.probes, p)
}

// Cycle returns the number of fully completed cycles.
func (s *Simulator) Cycle() uint64 { return s.cycle }

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

// Step advances the simulation by exactly one clock cycle: Eval of every
// component (Add'ed set, then ordered tail), Commit likewise, then the
// register commit, then the probes.
func (s *Simulator) Step() {
	cycle := s.cycle
	for _, c := range s.components {
		c.Eval(cycle)
	}
	for _, c := range s.ordered {
		c.Eval(cycle)
	}
	for _, c := range s.components {
		c.Commit()
	}
	for _, c := range s.ordered {
		c.Commit()
	}
	for _, r := range s.regs {
		r.commit()
	}
	s.cycle++
	for _, p := range s.probes {
		p(s.cycle)
	}
}

// Run advances the simulation by n cycles or until Stop is called,
// whichever comes first, and returns the number of cycles executed.
// Cycles skipped by fast-forward (see EnableFastForward) count as
// executed. Step and RunUntil never fast-forward; only Run does.
func (s *Simulator) Run(n uint64) uint64 {
	// Host-side state may have changed since the last Run (submissions,
	// set-up requests), so any cached quiescence verdict is stale.
	s.ffQuiet = false
	var done uint64
	for done < n && !s.halted() {
		if s.ffPeriod > 0 {
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

// String renders a short simulator status line.
func (s *Simulator) String() string {
	return fmt.Sprintf("sim{cycle=%d components=%d+%d regs=%d}",
		s.cycle, len(s.components), len(s.ordered), len(s.regs))
}
