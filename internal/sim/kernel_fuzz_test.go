package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"daelite/internal/phit"
)

// FuzzKernel runs one fuzzed system of components on the kernel, plain
// and under the audit, and on a naive reference kernel that evaluates
// and commits every component every cycle and latches every register
// through one untyped write list, and compares them after every cycle:
// every register's value, every component's committed state and the
// order in which Commits changed state. Two more kernel runs, plain and
// audited, have fast-forward armed and advance by Run: each cycle they
// execute must match the reference after that cycle, and across each
// cycle they skip the reference must change nothing.
//
// The components are correct by construction, so any difference is the
// kernel's. An Add'ed component reads up to two registers (refreshing
// only the inputs Changed names), writes its own register and, if it is
// a Committer, stages work for its Commit and asks for it; a sleeper
// sleeps once nothing is staged. An ordered component acts at the cycles
// of a fuzzed period: it writes its own register, overrides one no
// sleeper writes (Peek, then Set), makes an IP-side call on an Add'ed
// Committer (Wake and CommitNext, as NI.Send does) or stages work for
// its own Commit; a sleeper sleeps until its next such cycle. A watcher
// also overrides, in every cycle, a register whenever its pending value
// is odd, as a fault injector corrupts a wire holding a word; it sleeps
// only while that value is even, and a write wakes it (WakesOnSet), so
// it watches a register only the host and an Add'ed non-sleeper write.
// Registers are Reg[int], Reg[phit.Flit] and Reg[phit.ConfigWord].
// Between steps the host Sets the free registers, which only it and the
// ordered tail write, and makes IP-side calls.
func FuzzKernel(f *testing.F) {
	// Spec bytes: free registers, components-1, one kind per register,
	// then per component flags (1 ordered, 2 Committer, 4 sleeper, 8
	// spurious requests, bits 4-5 the ordered action, 64 watcher) and
	// three bytes.
	// Op bytes: op&3 == 2 Sets free register op>>2, 3 calls Committer
	// op>>2 (each with the next byte), else 1+(op>>2)%8 steps.
	f.Add([]byte{2, 5, 0, 1, 2, 0, 1, 2, 0, 1,
		6, 0, 2, 4, // Add'ed sleeping Committer reading a free register and itself
		0, 1, 2, 5, // Add'ed component that never sleeps
		14, 3, 1, 7, // Add'ed sleeping Committer with spurious requests
		55, 2, 0, 3, // ordered sleeping Committer staging its own work
		37, 0, 0, 1, // ordered sleeper calling an Add'ed Committer
		17, 4, 0, 2}, // ordered component overriding a register
		[]byte{2, 9, 6, 100, 28, 3, 5, 2, 50, 28, 7, 1, 28, 0, 0, 6, 3, 28, 28})
	f.Add([]byte{1, 3, 2, 2, 1, 0,
		4, 0, 3, 0, // Add'ed sleeper, no Committer
		39, 1, 1, 6, // ordered sleeper calling the Committer
		6, 2, 0, 9, // Add'ed sleeping Committer
		53, 3, 3, 12}, // ordered sleeping Committer, period 6
		[]byte{28, 2, 77, 28, 7, 2, 28, 1, 0, 28, 28, 2, 3, 28})
	f.Add([]byte{0, 7, 1, 1, 1, 2, 2, 2, 0, 0,
		2, 0, 7, 1, 6, 1, 0, 2, 14, 2, 3, 3, 1, 3, 4, 4,
		53, 4, 5, 5, 21, 5, 6, 0, 37, 6, 7, 1, 5, 7, 0, 2},
		[]byte{4, 8, 12, 3, 100, 7, 0, 16, 11, 9, 28, 28, 28, 3, 5, 24, 28})
	f.Add([]byte{1, 3, 1, 0, 2, 1, 0,
		6, 0, 0, 4, // Add'ed sleeping Committer reading the free register
		4, 1, 0, 2, // Add'ed sleeper reading it
		69, 0, 0, 5, // ordered sleeper watching the free register, period 6
		21, 1, 0, 3}, // ordered sleeper, period 4, writing its own (the watched one is not overridable)
		[]byte{28, 28, 2, 3, 28, 2, 8, 1, 28, 28, 2, 5, 28, 28, 28})
	f.Add([]byte{0, 1, 0, 0,
		4, 0, 0, 2, // Add'ed sleeper
		1, 0, 0, 3}, // ordered component that never sleeps, writing every 4th cycle
		[]byte{28, 28})
	f.Fuzz(func(t *testing.T, spec, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		sys := decodeSystem(spec)
		plain, audited, ref := newKernelRun(sys, false, false, t), newKernelRun(sys, true, false, t), newRefRun(sys)
		ffs := []*fzRun{newKernelRun(sys, false, true, t), newKernelRun(sys, true, true, t)}
		runs := []*fzRun{plain, audited, ref, ffs[0], ffs[1]}
		compare := func(when string) {
			t.Helper()
			for _, r := range runs[:2] {
				for i := range sys.kinds {
					if got, want := r.regs[i].get(), ref.regs[i].get(); got != want {
						t.Fatalf("%s, %s: register %d holds %d, reference %d", when, r.name, i, got, want)
					}
				}
				for i, c := range r.comps {
					if rc := ref.comps[i]; c.state != rc.state || c.host != rc.host || c.pending != rc.pending {
						t.Fatalf("%s, %s: component %d state/host/pending %d/%d/%d, reference %d/%d/%d",
							when, r.name, i, c.state, c.host, c.pending, rc.state, rc.host, rc.pending)
					}
				}
				if !slices.Equal(r.log, ref.log) {
					t.Fatalf("%s, %s: Commits changed state in order %v, reference %v", when, r.name, r.log, ref.log)
				}
			}
		}
		compare("at the start")
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			arg := 0
			if op&3 >= 2 && i+1 < len(ops) {
				i++
				arg = int(ops[i])
			}
			switch {
			case op&3 == 2 && sys.free > 0:
				r := int(op>>2) % sys.free
				for _, run := range runs {
					run.regs[r].set(arg)
				}
			case op&3 == 3 && len(sys.targets) > 0:
				c := sys.targets[int(op>>2)%len(sys.targets)]
				for _, run := range runs {
					run.comps[c].call(1 + arg%7)
				}
			default:
				n := 1 + int(op>>2)%8
				start := ref.cycle
				states := []string{ref.state()} // the reference at start+i
				for range n {
					for _, run := range runs[:3] {
						run.step()
					}
					compare(fmt.Sprintf("after cycle %d", ref.cycle))
					states = append(states, ref.state())
				}
				for _, r := range ffs {
					r.advance(n)
					for _, sn := range r.seen {
						if want := states[sn.cycle-start]; sn.state != want {
							t.Fatalf("%s, at cycle %d: %s, reference %s", r.name, sn.cycle, sn.state, want)
						}
					}
					for _, sk := range r.skips {
						for c := sk[0] + 1; c <= sk[1]; c++ {
							if states[c-start] != states[sk[0]-start] {
								t.Fatalf("%s skipped [%d,%d), but the reference moved from %s to %s at cycle %d",
									r.name, sk[0], sk[1], states[sk[0]-start], states[c-start], c)
							}
						}
					}
					if got := r.state(); got != states[n] {
						t.Fatalf("%s, at cycle %d: %s, reference %s", r.name, ref.cycle, got, states[n])
					}
				}
			}
		}
	})
}

// fzMask bounds every value the fuzzed components compute, so that it
// round-trips through each register type.
const fzMask = 0x1FF

// fzSpec is one fuzzed component.
type fzSpec struct {
	ordered, committer, sleeper, spurious bool
	watch                                 bool   // ordered: a watcher
	in                                    [2]int // registers read
	out                                   int    // its own register
	k                                     int    // mixed into what it computes
	period, offset                        uint64 // ordered: acts in cycles c with (c+offset)%period == 0
	action                                int    // ordered: 0 write out, 1 override target, 2 call target, 3 stage
	target                                int    // ordered: a register (1) or a component (2)
	watched                               int    // watcher: the register it overrides while odd
}

// fzSystem is a fuzzed system: register kinds (0 int, 1 Flit, 2
// ConfigWord; the first free of them written only by the host and the
// ordered tail, then one per component) and components in registration
// order, with the Add'ed Committers an IP-side call may target.
type fzSystem struct {
	kinds   []int
	free    int
	comps   []fzSpec
	targets []int
}

// decodeSystem reads a system from spec; a short spec reads as zeros.
func decodeSystem(spec []byte) fzSystem {
	next := func() int {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return int(b)
	}
	var sys fzSystem
	sys.free = next() % 5
	n := 1 + next()%8
	for range sys.free + n {
		sys.kinds = append(sys.kinds, next()%3)
	}
	for i := range n {
		flags, a, b, c := next(), next(), next(), next()
		sp := fzSpec{
			ordered:   flags&1 != 0,
			committer: flags&2 != 0,
			sleeper:   flags&4 != 0,
			spurious:  flags&8 != 0,
			in:        [2]int{a % len(sys.kinds), b % len(sys.kinds)},
			out:       sys.free + i,
			k:         c,
			period:    1 + uint64(c%7),
			offset:    uint64(a % 5),
			action:    flags >> 4 & 3,
			watch:     flags&65 == 65,
		}
		sys.comps = append(sys.comps, sp)
		if !sp.ordered && sp.committer {
			sys.targets = append(sys.targets, i)
		}
	}
	// Overrides go to registers no sleeper writes: free ones, the
	// outputs of Add'ed non-sleepers and of the ordered tail. A watcher
	// is the one ordered writer of what it watches (see WakesOnSet): a
	// free register or an Add'ed non-sleeper's output, which no other
	// watcher watches and no other component overrides.
	var overridable, watchable []int
	for r := range sys.free {
		overridable = append(overridable, r)
		watchable = append(watchable, r)
	}
	for _, sp := range sys.comps {
		if sp.ordered || !sp.sleeper {
			overridable = append(overridable, sp.out)
		}
		if !sp.ordered && !sp.sleeper {
			watchable = append(watchable, sp.out)
		}
	}
	watcher := map[int]int{} // by watched register
	for i := range sys.comps {
		sp := &sys.comps[i]
		if !sp.watch || len(watchable) == 0 {
			sp.watch = false
			continue
		}
		sp.watched = watchable[sp.k/7%len(watchable)]
		if _, taken := watcher[sp.watched]; taken {
			sp.watch = false
			continue
		}
		watcher[sp.watched] = i
	}
	for i := range sys.comps {
		sp := &sys.comps[i]
		if sp.action == 1 && len(overridable) > 0 {
			sp.target = overridable[sp.k%len(overridable)]
		}
		w, watched := watcher[sp.target]
		switch {
		case !sp.ordered:
		case sp.action == 1 && len(overridable) > 0 && (!watched || w == i):
		case sp.action == 2 && len(sys.targets) > 0:
			sp.target = sys.targets[sp.k%len(sys.targets)]
		case sp.action == 3 && sp.committer:
		default:
			sp.action = 0
		}
	}
	return sys
}

// fzReg is one register as the components see it, in either kernel.
type fzReg interface {
	get() int
	peek() int
	set(v int)
	wakes(a Activity, input int)
	wakesOnSet(a Activity)
}

type intReg struct{ *Reg[int] }

func (r intReg) get() int  { return r.Get() }
func (r intReg) peek() int { return r.Peek() }
func (r intReg) set(v int) { r.Set(v & fzMask) }

type flitReg struct{ *Reg[phit.Flit] }

func (r flitReg) get() int  { return int(r.Get().Data) }
func (r flitReg) peek() int { return int(r.Peek().Data) }
func (r flitReg) set(v int) { r.Set(phit.Flit{Data: phit.Word(v & fzMask), Valid: v&1 != 0}) }

type wordReg struct{ *Reg[phit.ConfigWord] }

func fromWord(w phit.ConfigWord) int {
	v := int(w.Bits) << 1
	if w.Valid {
		v |= 1
	}
	return v
}
func (r wordReg) get() int  { return fromWord(r.Get()) }
func (r wordReg) peek() int { return fromWord(r.Peek()) }
func (r wordReg) set(v int) { r.Set(phit.ConfigWord{Valid: v&1 != 0, Bits: uint8(v & fzMask >> 1)}) }

// activity is what a component does through its sim.Activity; the
// reference kernel's does nothing, and reports every input changed.
type activity interface {
	Changed() uint32
	Sleep()
	Wake()
	CommitNext()
	SleepUntil(due uint64)
}

type refActivity struct{}

func (refActivity) Changed() uint32   { return ^uint32(0) }
func (refActivity) Sleep()            {}
func (refActivity) Wake()             {}
func (refActivity) CommitNext()       {}
func (refActivity) SleepUntil(uint64) {}

// fz is a fuzzed component that is no Committer.
type fz struct {
	sp    *fzSpec
	run   *fzRun
	act   activity
	label string
	cache [2]int // Add'ed: the inputs as last read

	state, pending, host int
}

// fzCommitter is a fuzzed Committer.
type fzCommitter struct{ fz }

func (c *fz) Name() string { return c.label }

func (c *fz) Eval(cycle uint64) {
	if c.sp.ordered {
		c.evalOrdered(cycle)
		return
	}
	changed := c.act.Changed()
	for i, r := range c.sp.in {
		if changed&(1<<i) != 0 {
			c.cache[i] = c.run.regs[r].get()
		}
	}
	c.run.regs[c.sp.out].set(c.cache[0]*3 + c.cache[1]*5 + c.state*7 + c.sp.k)
	if c.sp.committer {
		if (c.cache[0]+c.state+c.sp.k)%3 == 0 {
			c.pending = 1 + c.sp.k%5
			c.act.CommitNext()
		} else if c.sp.spurious {
			c.act.CommitNext()
		}
	}
	if c.sp.sleeper && c.pending == 0 && c.host == 0 {
		c.act.Sleep()
	}
}

func (c *fz) evalOrdered(cycle uint64) {
	p := c.sp.period
	if (cycle+c.sp.offset)%p == 0 {
		v := int(cycle) + c.run.regs[c.sp.in[0]].get() + c.sp.k
		switch c.sp.action {
		case 0:
			c.run.regs[c.sp.out].set(v)
		case 1:
			r := c.run.regs[c.sp.target]
			r.set(r.peek() ^ v)
		case 2:
			c.run.comps[c.sp.target].call(1 + v%7)
		case 3:
			c.pending = 1 + v%11
			c.act.CommitNext()
		}
	}
	if c.sp.watch {
		r := c.run.regs[c.sp.watched]
		if r.peek()&1 != 0 {
			r.set(r.peek() ^ (int(cycle) + c.sp.k))
		}
		if r.peek()&1 != 0 {
			return // still odd: it acts again next cycle
		}
	}
	if c.sp.sleeper {
		c.act.SleepUntil(cycle + p - (cycle+c.sp.offset)%p)
	}
}

// call is an IP-side call: work for the next Commit, which it asks for.
func (c *fz) call(x int) {
	c.host += x
	c.act.Wake()
	c.act.CommitNext()
}

func (c *fzCommitter) Commit() {
	if c.pending+c.host != 0 {
		c.run.log = append(c.run.log, c.sp.out)
	}
	c.state = (c.state + c.pending + c.host) & fzMask
	c.pending, c.host = 0, 0
}

// fzRun is one instance of a system, on either kernel.
type fzRun struct {
	name  string
	regs  []fzReg
	comps []*fz
	log   []int // components whose Commit changed state, in order
	step  func()
	cycle uint64

	// A fast-forwarded kernel run advances by Run and notes the state
	// after each cycle it executes and each skip's [from, to).
	sim   *Simulator
	seen  []fzSeen
	skips [][2]uint64
}

// fzSeen is a run's state after the cycle that ends at cycle.
type fzSeen struct {
	cycle uint64
	state string
}

// state renders every register, every component's committed state and
// the Commit log.
func (run *fzRun) state() string {
	var b strings.Builder
	for _, r := range run.regs {
		fmt.Fprintf(&b, "%d ", r.get())
	}
	for _, c := range run.comps {
		fmt.Fprintf(&b, "%d/%d/%d ", c.state, c.host, c.pending)
	}
	fmt.Fprint(&b, run.log)
	return b.String()
}

// advance runs a fast-forwarded kernel run n cycles.
func (run *fzRun) advance(n int) {
	run.seen, run.skips = run.seen[:0], run.skips[:0]
	run.sim.Run(uint64(n))
	run.cycle = run.sim.Cycle()
}

// build makes run's components, registering each with add, which
// returns its activity.
func (run *fzRun) build(sys fzSystem, add func(c Component, ordered bool) activity) {
	for i := range sys.comps {
		sp := &sys.comps[i]
		c := &fzCommitter{fz{sp: sp, run: run, label: fmt.Sprintf("fz%d", i)}}
		run.comps = append(run.comps, &c.fz)
		if sp.committer {
			c.act = add(c, sp.ordered)
		} else {
			c.act = add(&c.fz, sp.ordered)
		}
	}
}

// newKernelRun builds sys on the kernel, audited or not, fast-forwarded
// or not.
func newKernelRun(sys fzSystem, audited, ff bool, t *testing.T) *fzRun {
	s := New()
	run := &fzRun{name: "kernel", sim: s}
	if audited {
		run.name = "audited kernel"
		s.Audit(func(msg string) { t.Fatal(msg) })
	}
	if ff {
		run.name += " with fast-forward"
		s.EnableFastForward()
		s.AddProbe(func(c uint64) { run.seen = append(run.seen, fzSeen{c, run.state()}) })
		s.AddFastForwardHook(func(from, to uint64) { run.skips = append(run.skips, [2]uint64{from, to}) })
	}
	for _, k := range sys.kinds {
		switch k {
		case 0:
			run.regs = append(run.regs, intReg{NewReg(s, 0)})
		case 1:
			run.regs = append(run.regs, flitReg{NewReg(s, phit.Flit{})})
		default:
			run.regs = append(run.regs, wordReg{NewReg(s, phit.ConfigWord{})})
		}
	}
	run.build(sys, func(c Component, ordered bool) activity {
		if ordered {
			return s.AddOrdered(c)
		}
		return s.Add(c)
	})
	for _, c := range run.comps {
		switch {
		case !c.sp.ordered:
			for in, r := range c.sp.in {
				run.regs[r].wakes(c.act.(Activity), in)
			}
		case c.sp.watch:
			run.regs[c.sp.watched].wakesOnSet(c.act.(Activity))
		}
	}
	run.step = func() {
		s.Step()
		run.cycle = s.Cycle()
	}
	return run
}

func (r intReg) wakes(a Activity, input int)  { r.Wakes(a, input) }
func (r flitReg) wakes(a Activity, input int) { r.Wakes(a, input) }
func (r wordReg) wakes(a Activity, input int) { r.Wakes(a, input) }

func (r intReg) wakesOnSet(a Activity)  { r.WakesOnSet(a) }
func (r flitReg) wakesOnSet(a Activity) { r.WakesOnSet(a) }
func (r wordReg) wakesOnSet(a Activity) { r.WakesOnSet(a) }

// refKernel is the naive reference kernel's register file: one untyped
// write list for every register.
type refKernel struct {
	cur, next []int
	dirty     []bool
	written   []int
}

type refReg struct {
	k *refKernel
	i int
}

func (r refReg) get() int { return r.k.cur[r.i] }
func (r refReg) peek() int {
	if r.k.dirty[r.i] {
		return r.k.next[r.i]
	}
	return r.k.cur[r.i]
}
func (r refReg) set(v int) {
	if !r.k.dirty[r.i] {
		r.k.dirty[r.i] = true
		r.k.written = append(r.k.written, r.i)
	}
	r.k.next[r.i] = v & fzMask
}
func (refReg) wakes(Activity, int) {}
func (refReg) wakesOnSet(Activity) {}

// newRefRun builds sys on the reference kernel: every cycle it
// evaluates every Add'ed component, then every ordered one, commits
// every Committer in the same order and latches every written register.
func newRefRun(sys fzSystem) *fzRun {
	n := len(sys.kinds)
	k := &refKernel{cur: make([]int, n), next: make([]int, n), dirty: make([]bool, n)}
	run := &fzRun{name: "reference"}
	for i := range n {
		run.regs = append(run.regs, refReg{k, i})
	}
	var added, ordered []Component
	run.build(sys, func(c Component, o bool) activity {
		if o {
			ordered = append(ordered, c)
		} else {
			added = append(added, c)
		}
		return refActivity{}
	})
	all := append(added, ordered...)
	run.step = func() {
		for _, c := range all {
			c.Eval(run.cycle)
		}
		for _, c := range all {
			if cm, ok := c.(Committer); ok {
				cm.Commit()
			}
		}
		for _, i := range k.written {
			k.cur[i] = k.next[i]
			k.dirty[i] = false
		}
		k.written = k.written[:0]
		run.cycle++
	}
	return run
}
