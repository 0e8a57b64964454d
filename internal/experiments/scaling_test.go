package experiments

import "testing"

// TestBigMeshDeterministicAcrossWorkers pins what Micro/BigMesh16x16
// times: the big mesh produces bit-identical fingerprints from run to
// run and with fast-forward on, and it actually carries traffic. (The
// name predates the removal of the kernel worker pool and is kept so
// the suite's test IDs stay stable.)
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
