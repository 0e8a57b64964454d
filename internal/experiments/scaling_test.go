package experiments

import "testing"

// TestBigMeshDeterministicAcrossWorkers pins what E16 and E22 rest on:
// the big mesh produces bit-identical fingerprints from run to run and
// with fast-forward on, and it actually carries traffic. (The name
// predates the removal of the kernel worker pool and is kept so the
// suite's test IDs stay stable.)
func TestBigMeshDeterministicAcrossWorkers(t *testing.T) {
	run := func(ff bool) (uint64, uint64) {
		bm, err := BuildBigMeshFF(8, 8, 8, 40, ff)
		if err != nil {
			t.Fatal(err)
		}
		bm.Run(2000)
		return bm.Fingerprint(), bm.Flits()
	}
	refFP, refFlits := run(false)
	if refFlits == 0 {
		t.Fatal("big mesh carried no traffic")
	}
	for _, ff := range []bool{false, true} {
		fp, flits := run(ff)
		if fp != refFP || flits != refFlits {
			t.Fatalf("ff=%v diverged: fp %x/%x flits %d/%d", ff, fp, refFP, flits, refFlits)
		}
	}
}

// TestScalingThroughputRuns exercises the full E16 sweep.
func TestScalingThroughputRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full scaling sweep in -short mode")
	}
	r, err := ScalingThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E16" || len(r.Metrics) == 0 {
		t.Fatalf("unexpected result: %+v", r)
	}
}
