package sim

import (
	"slices"
	"testing"
)

// delay drives its output with its input one cycle late, through a
// stage only it reads. It may sleep once it drove zero and latched zero:
// its next Eval would drive zero again. With early set it sleeps as soon
// as it latched zero, although the word in flight still has to be
// followed by a zero — a wrong sleep proof.
type delay struct {
	in, out *Reg[int]
	stage   int
	act     Activity
	early   bool
	evals   int
	changed []uint32
}

func (d *delay) Name() string { return "delay" }
func (d *delay) Eval(uint64) {
	d.evals++
	d.changed = append(d.changed, d.act.Changed())
	driven := d.stage
	d.out.Set(driven)
	d.stage = d.in.Get()
	if d.stage == 0 && (driven == 0 || d.early) {
		d.act.Sleep()
	}
}

// pulse drives in to 5 for one cycle, at cycle 3, from the host side.
func pulse(s *Simulator, early bool) (*delay, *Reg[int]) {
	in, out := NewReg(s, 0), NewReg(s, 0)
	d := &delay{in: in, out: out, early: early}
	d.act = s.Add(d)
	in.Wakes(d.act, 0)
	s.AddOrdered(&Func{Label: "host", OnEval: func(c uint64) {
		if c == 2 {
			in.Set(5)
		} else {
			in.Set(0)
		}
	}})
	out.Wakes(s.Add(&Func{Label: "reader"}), 0) // never sleeps
	return d, out
}

// TestAuditEvaluatesEveryoneAndCountsTheAwake: under the audit a correct
// sleeper is evaluated every cycle with every input marked changed, the
// run behaves exactly as without it, and Evaluations counts only the
// evaluations the kernel would have made.
func TestAuditEvaluatesEveryoneAndCountsTheAwake(t *testing.T) {
	run := func(audited bool) (*delay, []int, uint64) {
		s := New()
		if audited {
			s.Audit(func(msg string) { t.Fatal(msg) })
		}
		m, out := pulse(s, false)
		var seen []int
		s.AddProbe(func(uint64) { seen = append(seen, out.Get()) })
		s.Run(12)
		evaluated, _ := s.Evaluations()
		return m, seen, evaluated
	}
	pm, pseen, pevals := run(false)
	am, aseen, aevals := run(true)
	if !slices.Equal(pseen, aseen) {
		t.Fatalf("audited run saw %v, plain run %v", aseen, pseen)
	}
	if pm.evals >= 12 || am.evals != 12 {
		t.Fatalf("sleeper evaluated %d times plain and %d audited in 12 cycles, want fewer and every cycle", pm.evals, am.evals)
	}
	for c, ch := range am.changed {
		if ch != ^uint32(0) {
			t.Fatalf("audited Eval %d saw Changed %#x, want all ones", c, ch)
		}
	}
	if aevals != pevals {
		t.Fatalf("audited run counted %d evaluations, plain run %d", aevals, pevals)
	}
}

// TestAuditNamesTheLostWrite: a component that sleeps while its next
// Eval would still write a register fails the audit at that Eval's
// cycle, with its name and the register's.
func TestAuditNamesTheLostWrite(t *testing.T) {
	s := New()
	var msgs []string
	s.Audit(func(msg string) { msgs = append(msgs, msg) })
	_, out := pulse(s, true)
	s.Run(12)
	if len(msgs) != 1 {
		t.Fatalf("audit reported %d failures, want exactly the first: %q", len(msgs), msgs)
	}
	want := "sleep audit: cycle 5: delay would be asleep but set register #2 (int, read by reader) to 0"
	if msgs[0] != want {
		t.Fatalf("audit said %q, want %q", msgs[0], want)
	}
	if out.Get() != 0 {
		t.Fatalf("audited run kept the lost write's value %d", out.Get())
	}

	plain := New()
	_, pout := pulse(plain, true)
	plain.Run(12)
	if pout.Get() != 5 {
		t.Fatalf("without the audit the wrong sleep should leave 5 on the wire, got %d", pout.Get())
	}
}

// latecomer is a Committer that stages a value in Eval and drives it in
// Commit, but asks for its Commit only when ask is set.
type latecomer struct {
	out    *Reg[int]
	act    Activity
	ask    bool
	staged int
}

func (l *latecomer) Name() string { return "latecomer" }
func (l *latecomer) Eval(cycle uint64) {
	if cycle == 3 {
		l.staged = 7
		if l.ask {
			l.act.CommitNext()
		}
	}
}
func (l *latecomer) Commit() {
	if l.staged != 0 {
		l.out.Set(l.staged)
		l.staged = 0
	}
}

// TestAuditNamesAnUnaskedCommit: a Commit the kernel skips because its
// component did not ask for it fails the audit once it would have set a
// register, naming the component and the register; one that asked runs
// in both modes and passes.
func TestAuditNamesAnUnaskedCommit(t *testing.T) {
	run := func(ask, audited bool) (int, []string) {
		s := New()
		var msgs []string
		if audited {
			s.Audit(func(msg string) { msgs = append(msgs, msg) })
		}
		l := &latecomer{out: NewReg(s, 0), ask: ask}
		l.act = s.Add(l)
		s.Run(6)
		return l.out.Get(), msgs
	}
	for _, audited := range []bool{false, true} {
		if got, msgs := run(true, audited); got != 7 || len(msgs) != 0 {
			t.Fatalf("asked, audited %v: drove %d, audit said %q; want 7 and nothing", audited, got, msgs)
		}
	}
	if got, _ := run(false, false); got != 0 {
		t.Fatalf("unasked Commit ran: drove %d", got)
	}
	_, msgs := run(false, true)
	want := "sleep audit: cycle 3: latecomer did not ask for its commit but set register #1 (int, read by no component) to 7"
	if len(msgs) != 1 || msgs[0] != want {
		t.Fatalf("audit said %q, want exactly %q", msgs, want)
	}
}
