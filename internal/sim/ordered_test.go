package sim

import (
	"fmt"
	"strings"
	"testing"
)

// scripted is an ordered component that logs its Eval cycles and, at the
// cycles its script names, acts on its own Activity.
type scripted struct {
	label  string
	act    Activity
	script map[uint64]func(Activity)
	evals  []uint64
}

func (c *scripted) Name() string { return c.label }
func (c *scripted) Eval(cycle uint64) {
	c.evals = append(c.evals, cycle)
	if f := c.script[cycle]; f != nil {
		f(c.act)
	}
}

func addScripted(s *Simulator, label string, script map[uint64]func(Activity)) *scripted {
	c := &scripted{label: label, script: script}
	c.act = s.AddOrdered(c)
	return c
}

func sleepUntil(due uint64) func(Activity) { return func(a Activity) { a.SleepUntil(due) } }

// TestOrderedAwakeKeepRegistrationOrder: the awake ordered components run
// in registration order whatever sleeps in between, and each one that
// evaluated commits, sleeping or not; one woken mid-phase at a later
// index runs in that phase, one at an earlier index whose Commit is
// asked for commits in that cycle and evaluates the next.
func TestOrderedAwakeKeepRegistrationOrder(t *testing.T) {
	s := New()
	var log []string
	var acts []Activity
	mk := func(name string, onEval func(cycle uint64, a Activity)) {
		i := len(acts)
		acts = append(acts, s.AddOrdered(&Func{Label: name,
			OnEval: func(cy uint64) {
				log = append(log, "E"+name)
				onEval(cy, acts[i])
			},
			OnCommit: func() { log = append(log, "C"+name) },
		}))
	}
	sleepAt0 := func(cy uint64, a Activity) {
		if cy == 0 {
			a.Sleep()
		}
	}
	mk("a", sleepAt0)
	mk("b", func(cy uint64, a Activity) {
		if cy == 1 {
			acts[3].Wake() // later index: runs in this phase
		}
	})
	mk("c", sleepAt0)
	mk("d", func(cy uint64, a Activity) {
		switch cy {
		case 0:
			a.Sleep()
		case 1:
			acts[0].Wake() // earlier index: commits now, evaluates next
			acts[0].CommitNext()
			a.Sleep()
		}
	})
	for range 3 {
		s.Step()
		log = append(log, "|")
	}
	want := "Ea Eb Ec Ed Ca Cb Cc Cd | Eb Ed Ca Cb Cd | Ea Eb Ca Cb |"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("phase log\n got %s\nwant %s", got, want)
	}
}

// TestSleepUntilWakesAtDue: a timer wakes its component at exactly the
// Step of its due cycle; a Wake before that brings it back early and the
// superseded timer wakes nothing; a new SleepUntil replaces the old one.
func TestSleepUntilWakesAtDue(t *testing.T) {
	s := New()
	c := addScripted(s, "timed", map[uint64]func(Activity){
		0:  sleepUntil(7),
		7:  sleepUntil(20),
		10: func(a Activity) { a.SleepUntil(30); a.SleepUntil(14) },
		14: func(a Activity) { a.Sleep() },
	})
	s.Run(8)
	if fmt.Sprint(c.evals) != "[0 7]" {
		t.Fatalf("evaluated at %v by cycle 8, want [0 7]", c.evals)
	}
	s.Run(2)
	c.act.Wake() // before cycle 10, well before the timer at 20
	s.Run(40)
	if fmt.Sprint(c.evals) != "[0 7 10 14]" {
		t.Fatalf("evaluated at %v, want [0 7 10 14]: the timers at 20 and 30 were superseded", c.evals)
	}
	if _, ok := s.nextTimer(); ok || len(s.timers) != 0 {
		t.Fatalf("%d timers left pending", len(s.timers))
	}
}

// TestSleepUntilPastDue: a due at or before the next Step's cycle wakes
// the component for that Step.
func TestSleepUntilPastDue(t *testing.T) {
	s := New()
	c := addScripted(s, "late", map[uint64]func(Activity){0: sleepUntil(0), 1: sleepUntil(2)})
	s.Run(4)
	if fmt.Sprint(c.evals) != "[0 1 2 3]" {
		t.Fatalf("evaluated at %v, want every cycle", c.evals)
	}
}

// TestRunFastForwardsToEarliestTimer: with every other component asleep,
// Run skips straight to the earliest pending timer and never past it;
// Step and RunUntil never skip, and the timers still fire on time.
func TestRunFastForwardsToEarliestTimer(t *testing.T) {
	build := func() (*Simulator, *scripted, *scripted) {
		s := New()
		addSleeper(s)
		early := addScripted(s, "early", map[uint64]func(Activity){0: sleepUntil(100), 100: sleepUntil(250), 250: func(a Activity) { a.Sleep() }})
		late := addScripted(s, "late", map[uint64]func(Activity){0: sleepUntil(300), 300: func(a Activity) { a.Sleep() }})
		s.EnableFastForward()
		return s, early, late
	}

	s, early, late := build()
	var skips []string
	s.AddFastForwardHook(func(from, to uint64) { skips = append(skips, fmt.Sprintf("[%d,%d)", from, to)) })
	if n := s.Run(1000); n != 1000 || s.Cycle() != 1000 {
		t.Fatalf("Run returned %d at cycle %d, want 1000", n, s.Cycle())
	}
	if got := strings.Join(skips, " "); got != "[1,100) [101,250) [251,300) [301,1000)" {
		t.Fatalf("skips %s", got)
	}
	if fmt.Sprint(early.evals, late.evals) != "[0 100 250] [0 300]" {
		t.Fatalf("evaluated at %v and %v", early.evals, late.evals)
	}
	if s.SkippedCycles() != 996 {
		t.Fatalf("skipped %d cycles, want 996", s.SkippedCycles())
	}

	s, early, late = build()
	for range 50 {
		s.Step()
	}
	s.RunUntil(func() bool { return false }, 950)
	if s.SkippedCycles() != 0 || s.Cycle() != 1000 {
		t.Fatalf("Step/RunUntil skipped %d cycles (cycle %d)", s.SkippedCycles(), s.Cycle())
	}
	if fmt.Sprint(early.evals, late.evals) != "[0 100 250] [0 300]" {
		t.Fatalf("stepped: evaluated at %v and %v", early.evals, late.evals)
	}
}

// TestFastForwardAwakeOrderedBlocks: an awake ordered component blocks
// every skip and is named as the blocker, and a timer due at the next
// Step blocks it too; a sleeping one is quiet until its timer.
func TestFastForwardAwakeOrderedBlocks(t *testing.T) {
	s := New()
	addSleeper(s)
	c := addScripted(s, "wakes-at-50", map[uint64]func(Activity){0: sleepUntil(50)})
	s.EnableFastForward()
	s.Run(200)
	if s.SkippedCycles() != 49 || s.SkipBlocker() != "wakes-at-50" || len(c.evals) != 151 {
		t.Fatalf("skipped %d, blocker %q, %d evals; want 49, wakes-at-50, 151", s.SkippedCycles(), s.SkipBlocker(), len(c.evals))
	}

	s = New()
	addSleeper(s)
	c = &scripted{label: "every-cycle"}
	c.act = s.AddOrdered(c)
	c.script = map[uint64]func(Activity){}
	for cy := range uint64(100) {
		c.script[cy] = sleepUntil(cy + 1)
	}
	s.EnableFastForward()
	s.Run(100)
	if s.SkippedCycles() != 0 || s.SkipBlocker() != "every-cycle" || len(c.evals) != 100 {
		t.Fatalf("skipped %d, blocker %q, %d evals; want 0, every-cycle, 100", s.SkippedCycles(), s.SkipBlocker(), len(c.evals))
	}
}

// TestWakesOnSetWakesTheWatcher: an ordered component registered with
// WakesOnSet sleeps until its register is written with a new value: a
// write in the Add'ed phase wakes it for that cycle's Eval, where Peek
// shows the write, one between steps for the next Step, and rewriting
// the held value wakes nothing. Its timer survives the wakes, so
// renewing it pushes nothing.
func TestWakesOnSetWakesTheWatcher(t *testing.T) {
	s := New()
	r := NewReg(s, 0)
	s.Add(&Func{Label: "writer", OnEval: func(cy uint64) {
		switch cy {
		case 3:
			r.Set(1)
		case 5:
			r.Set(1) // the held value
		}
	}})
	var seen []string
	var act Activity
	act = s.AddOrdered(&Func{Label: "watcher", OnEval: func(cy uint64) {
		seen = append(seen, fmt.Sprintf("%d:%d", cy, r.Peek()))
		if cy < 20 {
			act.SleepUntil(20)
			return
		}
		act.Sleep()
	}})
	r.WakesOnSet(act)
	s.Run(8)
	r.Set(2)
	s.Run(8)
	if len(s.timers) != 1 {
		t.Fatalf("%d timer entries pushed by cycle 16, want the one", len(s.timers))
	}
	s.Run(14)
	if got := strings.Join(seen, " "); got != "0:0 3:1 8:2 20:2" {
		t.Fatalf("watcher evaluated at %s, want 0:0 3:1 8:2 20:2", got)
	}
}

// TestAuditNamesAWakeFromASleeper: an ordered component whose Eval,
// made only by the audit while it would be asleep, wakes a component
// fails the run with its name, the woken one's and the cycle.
func TestAuditNamesAWakeFromASleeper(t *testing.T) {
	s := New()
	var msgs []string
	s.Audit(func(msg string) { msgs = append(msgs, msg) })
	target := addSleeper(s)
	var act Activity
	act = s.AddOrdered(&Func{Label: "ip", OnEval: func(cy uint64) {
		if cy >= 3 {
			act.Sleep()
			target.act.Wake() // the lost IP-side call
		}
	}})
	s.Run(10)
	want := "sleep audit: cycle 4: ip would be asleep but woke sleeper"
	if len(msgs) != 1 || msgs[0] != want {
		t.Fatalf("audit said %q, want exactly %q", msgs, want)
	}
}

// TestTimerHeapAllocFree: a run of components that sleep on timers
// allocates nothing once the heap has grown to its working size.
func TestTimerHeapAllocFree(t *testing.T) {
	s := New()
	for i := range 8 {
		period := uint64(i + 2)
		var act Activity
		act = s.AddOrdered(&Func{Label: "periodic", OnEval: func(cy uint64) { act.SleepUntil(cy + period) }})
	}
	s.Run(100)
	if n := testing.AllocsPerRun(10, func() { s.Run(100) }); n != 0 {
		t.Fatalf("%v allocations per 100 cycles, want 0", n)
	}
}
