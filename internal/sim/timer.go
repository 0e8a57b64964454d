package sim

// The ordered tail's timed wake. SleepUntil records its due cycle by
// component (Simulator.due) and pushes (due, component) on a min-heap;
// Wake, Sleep and a later SleepUntil overwrite the record and leave the
// heap entry behind. An entry counts only while it matches its
// component's record, so a stale one is dropped when it surfaces. The
// heap reuses its slice: once it has grown to the most entries a run
// holds at once, pushing allocates nothing.

// noTimer is Simulator.due's record of a component with no pending
// SleepUntil.
const noTimer = ^uint64(0)

// timer is one SleepUntil: ordered component idx wakes at the Step of
// cycle due.
type timer struct {
	due uint64
	idx int32
}

// timerHeap is a binary min-heap of timers by due.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].due <= q[i].due {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

// pop removes the earliest timer; the heap must not be empty.
func (h *timerHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && q[l].due < q[m].due {
			m = l
		}
		if r := l + 1; r < n && q[r].due < q[m].due {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
}

// nextTimer drops stale timers off the top of the heap and returns the
// earliest live one, ok=false if none is pending.
func (s *Simulator) nextTimer() (t timer, ok bool) {
	for len(s.timers) > 0 {
		if t = s.timers[0]; s.due[t.idx] == t.due {
			return t, true
		}
		s.timers.pop()
	}
	return timer{}, false
}

// fire wakes every ordered component whose SleepUntil is due by cycle.
func (s *Simulator) fire(cycle uint64) {
	for {
		t, ok := s.nextTimer()
		if !ok || t.due > cycle {
			return
		}
		s.timers.pop()
		s.due[t.idx] = noTimer
		s.ordAwake[t.idx>>6] |= 1 << (t.idx & 63)
	}
}
