package alloc

import (
	"testing"

	"daelite/internal/topology"
)

// TestDryRunIsReadOnly is the what-if purity contract the control plane
// depends on: a dry-run must leave the live allocator untouched in every
// observable way — occupancy, epoch, journal, exclusion generation and
// the path-cache generation counter.
func TestDryRunIsReadOnly(t *testing.T) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := New(m.Graph, 8)
	if _, err := a.Unicast(m.NI(0, 0, 0), m.NI(3, 3, 0), 2, Options{}); err != nil {
		t.Fatal(err)
	}

	fpBefore := a.Fingerprint()
	epochBefore := a.Epoch()
	genBefore := a.gen
	cacheGenBefore := a.cache.nextGen
	journalBefore := len(a.journal)

	reqs := []Request{
		{Src: m.NI(1, 0, 0), Dst: m.NI(2, 3, 0), Slots: 2},
		{Src: m.NI(2, 3, 0), Dst: m.NI(1, 0, 0), Slots: 1},
	}
	uc, err := a.DryRun(reqs)
	if err != nil {
		t.Fatalf("DryRun: %v", err)
	}
	if len(uc.Unicasts) != 2 {
		t.Fatalf("DryRun returned %d unicasts, want 2", len(uc.Unicasts))
	}

	if got := a.Fingerprint(); got != fpBefore {
		t.Errorf("DryRun mutated occupancy: fingerprint %016x -> %016x", fpBefore, got)
	}
	if got := a.Epoch(); got != epochBefore {
		t.Errorf("DryRun bumped epoch: %d -> %d", epochBefore, got)
	}
	if a.gen != genBefore {
		t.Errorf("DryRun changed exclusion generation: %d -> %d", genBefore, a.gen)
	}
	if got := a.cache.nextGen; got != cacheGenBefore {
		t.Errorf("DryRun bumped the path-cache generation: %d -> %d", cacheGenBefore, got)
	}
	if len(a.journal) != journalBefore {
		t.Errorf("DryRun left %d journal records, want %d", len(a.journal), journalBefore)
	}

	// A failing dry-run (absurd demand) is equally side-effect free.
	if _, err := a.DryRun([]Request{{Src: m.NI(0, 0, 0), Dst: m.NI(0, 1, 0), Slots: 1000}}); err == nil {
		t.Fatal("DryRun of an unsatisfiable demand succeeded")
	}
	if got := a.Fingerprint(); got != fpBefore {
		t.Errorf("failing DryRun mutated occupancy: fingerprint %016x -> %016x", fpBefore, got)
	}

	// The prediction must be realizable: committing the same use-case for
	// real succeeds while nothing changed in between.
	if _, err := a.AllocateUseCase(reqs); err != nil {
		t.Fatalf("committing the dry-run use-case failed: %v", err)
	}
}

// TestFingerprintTracksOccupancy: the fingerprint changes on commit,
// returns to its prior value on release, and is insensitive to slice
// growth that left no reservation behind.
func TestFingerprintTracksOccupancy(t *testing.T) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := New(m.Graph, 8)
	empty := a.Fingerprint()

	u, err := a.Unicast(m.NI(0, 0, 0), m.NI(2, 2, 0), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := a.Fingerprint()
	if full == empty {
		t.Fatal("fingerprint unchanged by a committed reservation")
	}
	a.ReleaseUnicast(u)
	if got := a.Fingerprint(); got != empty {
		t.Errorf("fingerprint after release %016x, want empty-state %016x", got, empty)
	}

	// A second allocator replaying the same operation lands on the same
	// fingerprint.
	b := New(m.Graph, 8)
	if _, err := b.Unicast(m.NI(0, 0, 0), m.NI(2, 2, 0), 2, Options{}); err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint() != full {
		t.Errorf("replayed allocator fingerprint %016x, want %016x", b.Fingerprint(), full)
	}
}

// TestAdoptRoundTrip: adopting the recorded reservations of one
// allocator into a fresh one reproduces the exact occupancy fingerprint,
// and adopting over a collision is refused without partial effects.
func TestAdoptRoundTrip(t *testing.T) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := New(m.Graph, 8)
	u, err := a.Unicast(m.NI(0, 0, 0), m.NI(3, 1, 0), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := a.Multicast(m.NI(1, 1, 0), []topology.NodeID{m.NI(3, 3, 0), m.NI(0, 3, 0)}, 1)
	if err != nil {
		t.Fatal(err)
	}

	b := New(m.Graph, 8)
	if err := b.AdoptUnicast(u); err != nil {
		t.Fatal(err)
	}
	if err := b.AdoptMulticast(mc); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("adopted fingerprint %016x, want %016x", b.Fingerprint(), a.Fingerprint())
	}

	// Double-adoption collides with itself and must be refused cleanly.
	before := b.Fingerprint()
	if err := b.AdoptUnicast(u); err == nil {
		t.Fatal("adopting the same unicast twice succeeded")
	}
	if err := b.AdoptMulticast(mc); err == nil {
		t.Fatal("adopting the same multicast twice succeeded")
	}
	if b.Fingerprint() != before {
		t.Error("refused adoption left partial occupancy behind")
	}
}
