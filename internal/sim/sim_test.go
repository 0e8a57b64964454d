package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// counter increments a register every cycle; used to validate two-phase
// semantics.
type counter struct {
	r *Reg[int]
}

func (c *counter) Name() string { return "counter" }
func (c *counter) Eval(uint64)  { c.r.Set(c.r.Get() + 1) }

func TestRegTwoPhase(t *testing.T) {
	s := New()
	r := NewReg(s, 10)
	s.Add(&counter{r: r})
	if got := r.Get(); got != 10 {
		t.Fatalf("initial Get = %d, want 10", got)
	}
	s.Step()
	if got := r.Get(); got != 11 {
		t.Fatalf("after 1 cycle Get = %d, want 11", got)
	}
	s.Run(9)
	if got := r.Get(); got != 20 {
		t.Fatalf("after 10 cycles Get = %d, want 20", got)
	}
	if s.Cycle() != 10 {
		t.Fatalf("Cycle = %d, want 10", s.Cycle())
	}
}

// relay copies src into dst each cycle; a chain of relays must behave as a
// shift register, proving Eval order independence.
type relay struct {
	label    string
	src, dst *Reg[int]
}

func (r *relay) Name() string { return r.label }
func (r *relay) Eval(uint64)  { r.dst.Set(r.src.Get()) }

func TestShiftRegisterOrderIndependence(t *testing.T) {
	// Build the chain twice: once in forward order, once reversed. The
	// observable behaviour must be identical.
	build := func(reversed bool) []int {
		s := New()
		const n = 5
		regs := make([]*Reg[int], n+1)
		for i := range regs {
			regs[i] = NewReg(s, 0)
		}
		comps := make([]Component, n)
		for i := 0; i < n; i++ {
			comps[i] = &relay{label: "relay", src: regs[i], dst: regs[i+1]}
		}
		if reversed {
			for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
				comps[i], comps[j] = comps[j], comps[i]
			}
		}
		for _, c := range comps {
			s.Add(c)
		}
		// Drive the head with the cycle number.
		s.Add(&Func{Label: "drive", OnEval: func(cy uint64) { regs[0].Set(int(cy) + 1) }})
		var out []int
		for i := 0; i < 12; i++ {
			s.Step()
			out = append(out, regs[n].Get())
		}
		return out
	}
	fwd := build(false)
	rev := build(true)
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("cycle %d: forward %d != reversed %d", i, fwd[i], rev[i])
		}
	}
	// After n cycles of latency the tail must reproduce the input stream.
	want := []int{0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7}
	for i := range want {
		if fwd[i] != want[i] {
			t.Fatalf("tail[%d] = %d, want %d (%v)", i, fwd[i], want[i], fwd)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	r := NewReg(s, 0)
	s.Add(&counter{r: r})
	cycle, ok := s.RunUntil(func() bool { return r.Get() >= 7 }, 100)
	if !ok {
		t.Fatal("condition never held")
	}
	if cycle != 7 {
		t.Fatalf("condition held at cycle %d, want 7", cycle)
	}
	_, ok = s.RunUntil(func() bool { return false }, 5)
	if ok {
		t.Fatal("impossible condition reported as held")
	}
}

func TestStop(t *testing.T) {
	s := New()
	r := NewReg(s, 0)
	s.Add(&counter{r: r})
	s.Add(&Func{Label: "stopper", OnEval: func(uint64) {
		if r.Get() == 3 {
			s.Stop("hit 3")
		}
	}})
	ran := s.Run(100)
	if ran >= 100 {
		t.Fatal("Stop did not halt the run")
	}
	stopped, reason := s.Stopped()
	if !stopped || reason != "hit 3" {
		t.Fatalf("Stopped() = %v %q", stopped, reason)
	}
}

// TestStopFromAnotherGoroutine: Stop called from another goroutine, as
// a signal handler does, while Run steps halts the run, and the first
// caller's reason is kept (run it with -race).
func TestStopFromAnotherGoroutine(t *testing.T) {
	s := New()
	s.Add(&counter{r: NewReg(s, 0)})
	started := make(chan struct{})
	s.AddProbe(func(c uint64) {
		if c == 1 {
			close(started)
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-started
		s.Stop("first")
		s.Stop("second")
	}()
	s.Run(math.MaxUint64)
	<-done
	if stopped, reason := s.Stopped(); !stopped || reason != "first" {
		t.Fatalf("Stopped() = %v %q, want true \"first\"", stopped, reason)
	}
}

func TestProbeSeesSettledState(t *testing.T) {
	s := New()
	r := NewReg(s, 0)
	s.Add(&counter{r: r})
	var seen []int
	s.AddProbe(func(uint64) { seen = append(seen, r.Get()) })
	s.Run(4)
	want := []int{1, 2, 3, 4}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("probe[%d] = %d, want %d", i, seen[i], want[i])
		}
	}
}

func TestPeek(t *testing.T) {
	s := New()
	r := NewReg(s, 1)
	if r.Peek() != 1 {
		t.Fatal("Peek before Set should return current")
	}
	r.Set(9)
	if r.Peek() != 9 {
		t.Fatal("Peek after Set should return next")
	}
	if r.Get() != 1 {
		t.Fatal("Get must not observe uncommitted value")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	f := func(n uint8) bool {
		m := int(n % 64)
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make(map[int]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRNGShuffleDeterministic pins the determinism contract the chaos
// layer depends on: identically seeded RNGs shuffle identically, and the
// result is a permutation.
func TestRNGShuffleDeterministic(t *testing.T) {
	shuffle := func(seed uint64) []int {
		r := NewRNG(seed)
		s := make([]int, 32)
		for i := range s {
			s[i] = i
		}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	a, b := shuffle(99), shuffle(99)
	seen := make(map[int]bool, len(a))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= len(a) || seen[a[i]] {
			t.Fatalf("not a permutation: %v", a)
		}
		seen[a[i]] = true
	}
	c := shuffle(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the same shuffle")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestComponentNamesSorted(t *testing.T) {
	s := New()
	s.Add(&Func{Label: "zeta"})
	s.Add(&Func{Label: "alpha"})
	names := s.ComponentNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("ComponentNames = %v", names)
	}
}

// TestStopFromProbeMidRun covers the probe -> Stop path: probes run after
// commit, and a Stop they issue must halt Run after the current cycle with
// the cycle counter intact.
func TestStopFromProbeMidRun(t *testing.T) {
	s := New()
	s.Add(&counter{r: NewReg(s, 0)})
	s.AddProbe(func(cy uint64) {
		if cy == 7 {
			s.Stop("probe says enough")
		}
	})
	if ran := s.Run(1000); ran != 7 {
		t.Fatalf("Run executed %d cycles, want 7", ran)
	}
	if s.Cycle() != 7 {
		t.Fatalf("Cycle() = %d, want 7", s.Cycle())
	}
	stopped, reason := s.Stopped()
	if !stopped || reason != "probe says enough" {
		t.Fatalf("Stopped() = %v %q", stopped, reason)
	}
}

// idle is a component that never Sets any register and asks for its
// Commit in every Eval.
type idle struct {
	act            Activity
	evals, commits int
}

func (c *idle) Name() string { return "idle" }
func (c *idle) Eval(uint64) {
	c.evals++
	c.act.CommitNext()
}
func (c *idle) Commit() { c.commits++ }

// TestComponentNeverSets covers the never-Set edge case: a register no
// component writes keeps its initial value through every commit, and the
// silent component's Eval still runs every cycle.
func TestComponentNeverSets(t *testing.T) {
	s := New()
	quiet := NewReg(s, 42)
	silent := &idle{}
	silent.act = s.Add(silent)
	s.Add(&counter{r: NewReg(s, 0)})
	s.Run(25)
	if got := quiet.Get(); got != 42 {
		t.Fatalf("untouched register changed to %d", got)
	}
	if silent.evals != 25 {
		t.Fatalf("silent component evaluated %d times, want 25", silent.evals)
	}
}

// idleReporter is an idle component that also has a method Idle() bool,
// as aelite.ConfigUnit happens to.
type idleReporter struct{ idle }

func (*idleReporter) Idle() bool { return true }

// TestIdleMethodDoesNotSkipComponent pins that the kernel matches no
// method beyond Committer: a component reporting Idle() == true that
// asks for its Commit is Eval'ed and Commit'ed every cycle, in the
// Add'ed set and the ordered tail alike.
func TestIdleMethodDoesNotSkipComponent(t *testing.T) {
	s := New()
	added, ordered := &idleReporter{}, &idleReporter{}
	added.act = s.Add(added)
	ordered.act = s.AddOrdered(ordered)
	s.Run(25)
	for _, c := range []*idleReporter{added, ordered} {
		if c.evals != 25 || c.commits != 25 {
			t.Fatalf("component ran %d evals, %d commits, want 25 each", c.evals, c.commits)
		}
	}
}

// TestOrderedTailSemantics pins the AddOrdered contract the fault injector
// and traffic endpoints rely on: ordered components run after the whole
// Add'ed set in both phases, observe pending values via Peek, and may
// override them — whether they were registered before or after it.
func TestOrderedTailSemantics(t *testing.T) {
	for _, orderedFirst := range []bool{false, true} {
		s := New()
		wires := []*Reg[int]{NewReg(s, 0), NewReg(s, 0)}
		var sawPending bool
		var commits []string
		override := &Func{Label: "override",
			OnEval: func(cy uint64) {
				if wires[0].Peek() == int(cy)+100 {
					sawPending = true
				}
				wires[0].Set(-1)
			},
			OnCommit: func() { commits = append(commits, "override") },
		}
		if orderedFirst {
			s.AddOrdered(override)
		}
		for _, w := range wires {
			w := w
			s.Add(&Func{Label: "drv",
				OnEval:   func(cy uint64) { w.Set(int(cy) + 100) },
				OnCommit: func() { commits = append(commits, "drv") },
			})
		}
		if !orderedFirst {
			s.AddOrdered(override)
		}
		s.Step()
		if !sawPending {
			t.Fatalf("orderedFirst=%v: ordered component did not observe the pending value", orderedFirst)
		}
		if got := wires[0].Get(); got != -1 {
			t.Fatalf("orderedFirst=%v: override lost, wire committed %d", orderedFirst, got)
		}
		if got := wires[1].Get(); got != 100 {
			t.Fatalf("orderedFirst=%v: untouched wire committed %d, want 100", orderedFirst, got)
		}
		if len(commits) != 3 || commits[2] != "override" {
			t.Fatalf("orderedFirst=%v: commit order %v, want the ordered component last", orderedFirst, commits)
		}
	}
}

// sleeper reads one register and goes to sleep while it holds zero — the
// smallest component that opts into the activity protocol. It asks for
// its Commit in every Eval.
type sleeper struct {
	in             *Reg[int]
	act            Activity
	evals, commits int
}

func (c *sleeper) Name() string { return "sleeper" }
func (c *sleeper) Eval(uint64) {
	c.evals++
	c.act.CommitNext()
	if c.in.Get() == 0 {
		c.act.Sleep()
	}
}
func (c *sleeper) Commit() { c.commits++ }

func newSleeper(s *Simulator, in *Reg[int]) *sleeper {
	c := &sleeper{in: in}
	c.act = s.Add(c)
	in.Wakes(c.act, 0)
	return c
}

// TestSleeperWakesOnChangeOnly: a sleeper runs once, sleeps, and wakes
// for exactly one more evaluation per latched change of the register it
// reads — not for a Set of the value the register already holds, and not
// for a value that is overwritten back before the edge.
func TestSleeperWakesOnChangeOnly(t *testing.T) {
	s := New()
	in := NewReg(s, 0)
	c := newSleeper(s, in)
	s.Run(10)
	if c.evals != 1 || c.commits != 1 {
		t.Fatalf("idle sleeper: %d evals, %d commits, want 1, 1", c.evals, c.commits)
	}
	in.Set(0) // same value on a clean register: a no-op
	if n := written(s); n != 0 {
		t.Fatalf("Set of the held value put %d registers on a write list", n)
	}
	s.Run(10)
	if c.evals != 1 || c.commits != 1 {
		t.Fatalf("Set of the held value woke the reader (%d evals, %d commits)", c.evals, c.commits)
	}
	in.Set(3)
	in.Set(0) // written back before the edge: latched, but no change
	s.Run(10)
	if c.evals != 1 {
		t.Fatalf("an unchanged latch woke the reader (%d evals)", c.evals)
	}
	in.Set(7)
	s.Step()  // the host Set lands at this latch and wakes the reader
	s.Run(10) // which evaluates once per cycle while the value is non-zero
	if c.evals != 1+10 {
		t.Fatalf("woken sleeper evaluated %d times, want 11", c.evals)
	}
	in.Set(0)
	s.Run(10) // the change back to zero wakes it once more, then it sleeps
	if c.evals != 1+10+2 {
		t.Fatalf("sleeper evaluated %d times after the register cleared, want 13", c.evals)
	}
	if evaluated, offered := s.Evaluations(); evaluated != 13 || offered != 51 {
		t.Fatalf("Evaluations() = %d of %d, want 13 of 51", evaluated, offered)
	}
}

// written counts the registers on s's write lists.
func written(s *Simulator) (n int) {
	for _, l := range s.lists {
		n += l.len()
	}
	return n
}

// TestHostSetBetweenStepsLandsAtNextLatch: a register written by the host
// between steps keeps its value through the next Eval phase (two-phase
// semantics), is latched at that step's edge, and the sleeping reader
// runs the step after.
func TestHostSetBetweenStepsLandsAtNextLatch(t *testing.T) {
	s := New()
	in := NewReg(s, 0)
	c := newSleeper(s, in)
	var seen []int
	s.AddOrdered(&Func{Label: "watch", OnEval: func(uint64) { seen = append(seen, in.Get()) }})
	s.Run(3)
	in.Set(5)
	if in.Get() != 0 || in.Peek() != 5 {
		t.Fatalf("before the edge: Get %d Peek %d, want 0 and 5", in.Get(), in.Peek())
	}
	s.Step()
	if in.Get() != 5 || c.evals != 1 {
		t.Fatalf("after the edge: Get %d, %d evals, want 5 and 1", in.Get(), c.evals)
	}
	s.Step()
	if c.evals != 2 {
		t.Fatalf("reader not woken by the latched host Set (%d evals)", c.evals)
	}
	if want := []int{0, 0, 0, 0, 5}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("ordered tail saw %v, want %v", seen, want)
	}
}

// TestOrderedOverrideWithSleepers pins the Peek/Set override contract of
// the ordered tail on the write list: an override of a value an Add'ed
// component just drove wins, an override back to the held value cancels
// the change (and wakes nobody), and an override of an unwritten
// register lands like any Set.
func TestOrderedOverrideWithSleepers(t *testing.T) {
	s := New()
	drv, quiet, spare := NewReg(s, 0), NewReg(s, 0), NewReg(s, 0)
	c := newSleeper(s, quiet)
	s.Add(&Func{Label: "drv", OnEval: func(cy uint64) {
		drv.Set(int(cy) + 100)
		quiet.Set(int(cy) + 100)
	}})
	var peeked []int
	s.AddOrdered(&Func{Label: "override", OnEval: func(cy uint64) {
		peeked = append(peeked, drv.Peek(), quiet.Peek(), spare.Peek())
		drv.Set(-1)
		quiet.Set(0)
		spare.Set(int(cy))
	}})
	s.Step()
	s.Step()
	if drv.Get() != -1 || quiet.Get() != 0 || spare.Get() != 1 {
		t.Fatalf("after overrides: drv %d quiet %d spare %d, want -1 0 1", drv.Get(), quiet.Get(), spare.Get())
	}
	if want := []int{100, 100, 0, 101, 101, 0}; fmt.Sprint(peeked) != fmt.Sprint(want) {
		t.Fatalf("ordered tail peeked %v, want %v", peeked, want)
	}
	if c.evals != 1 {
		t.Fatalf("a cancelled change woke the reader (%d evals)", c.evals)
	}
}

// TestAwakeOrderAndMidStepWake: awake components run in registration
// order whatever sleeps in between, and a component woken by the ordered
// tail mid-step, with its Commit asked for as an IP-side call does,
// commits in that same cycle, then evaluates the next.
func TestAwakeOrderAndMidStepWake(t *testing.T) {
	s := New()
	var log []string
	mk := func(name string, sleepy bool) Activity {
		var a Activity
		a = s.Add(&Func{Label: name,
			OnEval: func(uint64) {
				log = append(log, "E"+name)
				if sleepy {
					a.Sleep()
				}
			},
			OnCommit: func() { log = append(log, "C"+name) },
		})
		return a
	}
	mk("a", false)
	b := mk("b", true)
	mk("c", false)
	s.AddOrdered(&Func{Label: "host", OnEval: func(cy uint64) {
		if cy == 2 {
			b.Wake()
			b.CommitNext()
		}
	}})
	for i := 0; i < 4; i++ {
		s.Step()
		log = append(log, "|")
	}
	want := "Ea Eb Ec Ca Cb Cc | Ea Ec Ca Cc | Ea Ec Ca Cb Cc | Ea Eb Ec Ca Cb Cc |"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("phase log\n got %s\nwant %s", got, want)
	}
	if got := s.String(); got != "sim{cycle=4 components=3+1 awake=2 regs=0}" {
		t.Fatalf("String() = %s", got)
	}
}

// TestEvalCycle pins the host-side clock components stamp submissions
// with: 0 before the first step, Cycle() during a step, Cycle()-1
// between steps and after a fast-forward skip.
func TestEvalCycle(t *testing.T) {
	s := New()
	var mid []uint64
	s.AddOrdered(&Func{Label: "stamp", OnEval: func(uint64) { mid = append(mid, s.EvalCycle()) }})
	if s.EvalCycle() != 0 {
		t.Fatalf("before the first step: %d", s.EvalCycle())
	}
	s.Step()
	s.Step()
	if s.EvalCycle() != 1 || fmt.Sprint(mid) != "[0 1]" {
		t.Fatalf("EvalCycle %d between steps after 2 cycles (want 1), mid-step stamps %v (want [0 1])", s.EvalCycle(), mid)
	}

	ff := New()
	addSleeper(ff)
	ff.EnableFastForward()
	ff.Run(96) // cycle 0 stepped, then one 95-cycle skip ends the run
	if ff.SkippedCycles() != 95 || ff.EvalCycle() != 95 {
		t.Fatalf("after %d skipped cycles: EvalCycle %d, Cycle %d", ff.SkippedCycles(), ff.EvalCycle(), ff.Cycle())
	}
}

// TestChangedInputs: a reader registered through Reg.Wakes learns
// which inputs latched a new value since its last look. Wiring counts as
// a change, a Set of the held value does not, and reading clears.
func TestChangedInputs(t *testing.T) {
	s := New()
	a, b := NewReg(s, 0), NewReg(s, 0)
	var got []uint32
	var act Activity
	act = s.Add(&Func{Label: "reader", OnEval: func(uint64) {
		got = append(got, act.Changed())
		act.Sleep()
	}})
	a.Wakes(act, 0)
	b.Wakes(act, 3)
	s.Step()
	b.Set(0)
	a.Set(5)
	s.Run(3)
	if fmt.Sprint(got) != "[9 1]" {
		t.Fatalf("Changed() per evaluation = %v, want [9 1]", got)
	}
}
