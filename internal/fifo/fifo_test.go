package fifo

import "testing"

// TestRingTwoPhase walks a depth-3 ring several times round: staged
// entries stay invisible until Commit, taken ones occupy their place
// until Commit, popped ones free it at once, and order is kept.
func TestRingTwoPhase(t *testing.T) {
	r := New[int](3)
	if r.buf != nil {
		t.Fatal("New allocated the buffer")
	}
	next, want := 0, 0
	for round := 0; round < 5; round++ {
		for !r.Full() {
			r.Stage(next)
			next++
		}
		if r.Len() != 0 || r.Used() != 3 {
			t.Fatalf("round %d: staged entries visible: Len %d Used %d", round, r.Len(), r.Used())
		}
		r.Commit()
		if got := r.Take(); got != want {
			t.Fatalf("round %d: Take = %d, want %d", round, got, want)
		}
		want++
		if r.Len() != 2 || !r.Full() {
			t.Fatalf("round %d: a taken entry freed its place before Commit", round)
		}
		r.Commit()
		if got := r.Pop(); got != want || r.Used() != 1 {
			t.Fatalf("round %d: Pop = %d with %d used, want %d with 1", round, got, r.Used(), want)
		}
		want++
		if got := r.Pop(); got != want {
			t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
		}
		want++
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Stage on a full ring did not panic")
		}
	}()
	for {
		r.Stage(0)
	}
}
