package experiments

import (
	"reflect"
	"testing"
)

// TestExperimentsFastForwardBitIdentical regenerates the golden suite
// with fast-forwarding off and on. The rendered tables and every metric
// must be byte-identical: fast-forward is a wall-clock optimization,
// never an observable one. E15 (chaos repair), E18 (conformance
// differential sweep) and E21 (per-stage set-up traces) exercise the
// entry/exit machinery hardest.
func TestExperimentsFastForwardBitIdentical(t *testing.T) {
	defer SetFastForward(false)
	SetFastForward(false)
	ref, err := All()
	if err != nil {
		t.Fatal(err)
	}
	SetFastForward(true)
	got, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ref {
		t.Run(want.ID, func(t *testing.T) {
			if got[i].Text != want.Text {
				t.Errorf("%s text diverged under fast-forward:\n--- accurate ---\n%s\n--- fast-forward ---\n%s",
					want.ID, want.Text, got[i].Text)
			}
			if !reflect.DeepEqual(got[i].Metrics, want.Metrics) {
				t.Errorf("%s metrics diverged under fast-forward:\naccurate:     %v\nfast-forward: %v",
					want.ID, want.Metrics, got[i].Metrics)
			}
		})
	}
}
