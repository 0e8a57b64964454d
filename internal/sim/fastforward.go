package sim

// Fast-forward: the model-guided hybrid execution mode. A platform that
// is *quiescent* — every component reports that its next Eval/Commit
// would leave all observable state exactly where it is — evolves
// P-periodically, where P is the slot-wheel hyper-period (wheel size ×
// words per slot): the only signals still moving are the credit carriers
// the TDM schedule emits on reserved slots, and those repeat exactly
// every P cycles. The kernel can therefore advance the clock in whole
// multiples of P without evaluating anything, and the state it resumes
// from is bit-identical to what cycle-accurate execution would have
// produced: same wire fingerprints (which fold valid payload flits only,
// and a quiescent platform carries none), same telemetry counters (which
// cannot change while every component is inert), same traces.
//
// Correctness is default-deny. Every component registered with the
// simulator — Add'ed set and ordered tail alike — must implement
// Quiescer and report Quiet, and every registered quiescence gate must
// agree, or no cycle is ever skipped. A component that cannot prove its
// own inertness simply doesn't implement the interface and thereby
// pins the platform to cycle-accurate execution.
//
// Entry additionally waits out a settle window: after the last non-quiet
// scan, the platform runs cycle-accurately for `settle` more cycles so
// in-flight transients (credit streams of a freshly opened connection
// propagating toward the far side of the mesh, stale flits draining out
// of link pipelines) reach their periodic steady state before any state
// is frozen. Exit is exact: each component's Until bounds the skip to
// strictly before the first cycle at which it may act again (a replayer
// event, a fault window opening), so that cycle executes for real.

// Quiescence is one component's answer to "may I be skipped?".
type Quiescence struct {
	// Quiet reports that, as long as no other component acts, this
	// component's Eval and Commit change no observable state: no
	// register takes a new value (beyond re-latching the P-periodic
	// slot-wheel pattern), no counter moves, no RNG is consumed, no
	// event is emitted.
	Quiet bool
	// Until is the first cycle whose Step must execute for real (the
	// component arms then: a scheduled event, a fault window, a
	// deadline). 0 means unbounded — quiet until some other component
	// or the host acts.
	Until uint64
}

// Quiescer is implemented by components that can prove their own
// inertness. Quiescence is only consulted on the stepping goroutine,
// between steps, with all state settled.
type Quiescer interface {
	Quiescence(now uint64) Quiescence
}

// QuiescenceFunc is a standalone quiescence gate registered via
// AddQuiescer — the hook for platform-level conditions no single
// component owns (outstanding host-side transactions, stall-detection
// windows).
type QuiescenceFunc func(now uint64) Quiescence

// FastForwardHook is called, via AddFastForwardHook, immediately after
// the clock jumps from `from` to `to` — the closed-form catch-up hook for
// observers (statistics monitors) that sample per cycle and must account
// for the skipped stretch analytically. Components keep no copy of the
// clock (they read Simulator.EvalCycle), so they need no such hook.
type FastForwardHook func(from, to uint64)

// EnableFastForward arms fast-forward with the platform's hyper-period
// (cycles are only ever skipped in whole multiples of it) and a settle
// window (cycles of forced cycle-accurate execution after the last
// non-quiet scan). Panics on a zero period. A settle below two periods
// is raised to that — the catch-up hooks need one fully-quiescent
// period on record before any skip.
func (s *Simulator) EnableFastForward(period, settle uint64) {
	if period == 0 {
		panic("sim: fast-forward period must be positive")
	}
	if settle < 2*period {
		settle = 2 * period
	}
	s.ffPeriod, s.ffSettle = period, settle
}

// DisableFastForward pins the simulator back to cycle-accurate
// execution (used when a per-cycle observer like a VCD recorder is
// attached).
func (s *Simulator) DisableFastForward() { s.ffPeriod = 0 }

// SkippedCycles returns the number of cycles fast-forward skipped so
// far. They are included in Cycle() — a skipped cycle is a completed
// cycle whose outcome was determined analytically.
func (s *Simulator) SkippedCycles() uint64 { return s.ffSkipped }

// AddQuiescer registers a standalone quiescence gate. Like components,
// gates are default-deny: every registered gate must report Quiet for a
// skip to happen.
func (s *Simulator) AddQuiescer(g QuiescenceFunc) {
	s.gates = append(s.gates, g)
}

// AddFastForwardHook registers a catch-up hook run after every skip, in
// registration order, on the stepping goroutine.
func (s *Simulator) AddFastForwardHook(h FastForwardHook) {
	s.ffHooks = append(s.ffHooks, h)
}

// ffScan re-evaluates quiescence at cycle `now`, maintaining the busy
// bookkeeping. The common cases stay cheap: while the platform is busy,
// only the cached culprit is re-asked until it goes quiet; a full scan
// runs only on a busy→quiet transition (and its verdict is then reused
// until the horizon, since a fully quiescent platform cannot wake
// itself up before it).
func (s *Simulator) ffScan(now uint64) {
	if s.ffBusy != nil {
		if q := s.ffBusy(now); !q.Quiet {
			s.ffLastBusy = now
			return
		}
		s.ffBusy = nil
	}
	s.ffQuiet, s.ffHorizon = false, 0
	if s.nonQuiescers > 0 {
		// Default-deny: some component cannot prove inertness.
		s.ffLastBusy = now
		return
	}
	var horizon uint64
	note := func(q Quiescence) bool {
		if !q.Quiet {
			return false
		}
		if q.Until != 0 && q.Until <= now {
			// "May act now or earlier" — treat as busy.
			return false
		}
		if q.Until != 0 && (horizon == 0 || q.Until < horizon) {
			horizon = q.Until
		}
		return true
	}
	// Ordered tail first (traffic endpoints and injectors are the usual
	// culprits), then gates, then the Add'ed set.
	for _, c := range s.ordered {
		qc := c.(Quiescer)
		if !note(qc.Quiescence(now)) {
			s.ffBusy, s.ffLastBusy = qc.Quiescence, now
			return
		}
	}
	for _, g := range s.gates {
		if !note(g(now)) {
			s.ffBusy, s.ffLastBusy = g, now
			return
		}
	}
	for i := range s.components {
		q := s.quiescers[i]
		if q == nil {
			s.ffLastBusy = now
			return
		}
		if !note(q.Quiescence(now)) {
			s.ffBusy, s.ffLastBusy = q.Quiescence, now
			return
		}
	}
	s.ffQuiet, s.ffHorizon = true, horizon
}

// tryFastForward skips as many cycles as quiescence allows, at most
// budget, and returns the count (0 = step normally). Called only from
// Run, on the stepping goroutine.
func (s *Simulator) tryFastForward(budget uint64) uint64 {
	now := s.cycle
	if !s.ffQuiet || (s.ffHorizon != 0 && now >= s.ffHorizon) {
		s.ffScan(now)
	}
	if !s.ffQuiet || now < s.ffLastBusy+s.ffSettle {
		return 0
	}
	limit := budget
	if s.ffHorizon != 0 && s.ffHorizon-now < limit {
		limit = s.ffHorizon - now
	}
	skip := limit - limit%s.ffPeriod
	if skip == 0 {
		return 0
	}
	s.cycle += skip
	s.ffSkipped += skip
	for _, h := range s.ffHooks {
		h(now, s.cycle)
	}
	return skip
}
