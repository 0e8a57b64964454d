package sim

import (
	"fmt"
	"testing"
)

// addSleeper adds a sleeper whose register nobody writes: it is
// evaluated once and then sleeps for good.
func addSleeper(s *Simulator) *sleeper { return newSleeper(s, NewReg(s, 0)) }

// tickComp is an ordered component that acts exactly once, at cycle
// `at`, sleeping until then and for good afterwards.
type tickComp struct {
	act   Activity
	at    uint64
	fired []uint64
}

func (t *tickComp) Name() string { return "tick" }
func (t *tickComp) Eval(cycle uint64) {
	if cycle == t.at {
		t.fired = append(t.fired, cycle)
	}
	if cycle < t.at {
		t.act.SleepUntil(t.at)
		return
	}
	t.act.Sleep()
}

// mute is an ordered component that never sleeps.
type mute struct{}

func (mute) Name() string      { return "mute" }
func (mute) Eval(cycle uint64) {}

// TestFastForwardSkipsQuiescentStretch: once the only component sleeps,
// Run skips the rest of its budget in one skip of any length, not a
// multiple of some period.
func TestFastForwardSkipsQuiescentStretch(t *testing.T) {
	s := New()
	z := addSleeper(s)
	s.EnableFastForward()
	if got := s.Run(1000); got != 1000 || s.Cycle() != 1000 {
		t.Fatalf("Run returned %d at cycle %d, want 1000", got, s.Cycle())
	}
	// Cycle 0 runs for real: the sleeper is added awake.
	if z.evals != 1 || s.SkippedCycles() != 999 || s.SkipBlocker() != "" {
		t.Fatalf("evals %d, skipped %d, blocker %q; want 1, 999, none", z.evals, s.SkippedCycles(), s.SkipBlocker())
	}
}

func TestFastForwardHooksObserveSkip(t *testing.T) {
	s := New()
	addSleeper(s)
	var from, to uint64
	s.AddFastForwardHook(func(f, t uint64) { from, to = f, t })
	s.EnableFastForward()
	s.Run(1000)
	if from != 1 || to != 1000 {
		t.Fatalf("hook saw [%d,%d), want [1,1000)", from, to)
	}
}

func TestFastForwardNeverInStepOrRunUntil(t *testing.T) {
	s := New()
	addSleeper(s)
	s.EnableFastForward()
	s.Step()
	s.RunUntil(func() bool { return false }, 200)
	if s.SkippedCycles() != 0 || s.Cycle() != 201 {
		t.Fatalf("Step/RunUntil skipped %d cycles (cycle %d)", s.SkippedCycles(), s.Cycle())
	}
}

// TestFastForwardHonorsUntilHorizon: a component asleep until a cycle
// ends the skip there, acts at that cycle as it does stepped, and the
// skip resumes once it sleeps for good.
func TestFastForwardHonorsUntilHorizon(t *testing.T) {
	run := func(ff bool) (*tickComp, uint64) {
		s := New()
		addSleeper(s)
		tc := &tickComp{at: 2500}
		tc.act = s.AddOrdered(tc)
		if ff {
			s.EnableFastForward()
		}
		s.Run(4000)
		return tc, s.SkippedCycles()
	}
	ref, _ := run(false)
	got, skipped := run(true)
	if fmt.Sprint(got.fired, ref.fired) != "[2500] [2500]" || skipped != 3998 {
		t.Fatalf("tick fired at %v under fast-forward (skipped %d), at %v without; want [2500], 3998 skipped", got.fired, skipped, ref.fired)
	}
}

// TestFastForwardDefaultDeny: an Add'ed component that never sleeps
// blocks every skip and is named as the blocker.
func TestFastForwardDefaultDeny(t *testing.T) {
	s := New()
	addSleeper(s)
	s.Add(&Func{Label: "probe"})
	s.EnableFastForward()
	s.Run(500)
	if s.SkippedCycles() != 0 || s.SkipBlocker() != "probe" {
		t.Fatalf("skipped %d, blocker %q; want 0, probe", s.SkippedCycles(), s.SkipBlocker())
	}
}

func TestFastForwardOrderedDefaultDeny(t *testing.T) {
	s := New()
	addSleeper(s)
	s.AddOrdered(mute{})
	s.EnableFastForward()
	s.Run(500)
	if s.SkippedCycles() != 0 || s.SkipBlocker() != "mute" {
		t.Fatalf("skipped %d, blocker %q; want 0, mute", s.SkippedCycles(), s.SkipBlocker())
	}
}
