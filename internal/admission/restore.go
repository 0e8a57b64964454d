package admission

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"daelite/internal/core"
	"daelite/internal/topology"
)

// RestoreReport summarizes a successful Restore.
type RestoreReport struct {
	// SnapshotSeq is the journal cursor of the adopted snapshot (0 when
	// no snapshot existed).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// AdoptedConns counts connections reconstructed from the snapshot.
	AdoptedConns int `json:"adopted_conns"`
	// ReplayedRecords/Opens/Closes count journal-suffix work re-driven
	// through the real admission engine.
	ReplayedRecords int `json:"replayed_records"`
	ReplayedOpens   int `json:"replayed_opens"`
	ReplayedCloses  int `json:"replayed_closes"`
	// Fingerprint is the allocator occupancy fingerprint after restore.
	Fingerprint uint64 `json:"fingerprint"`
}

// Restore rebuilds the control-plane state from the configured snapshot
// and journal. Call after NewService and before Start, on a freshly
// built platform. The snapshot's reservations are adopted verbatim (no
// re-allocation) and the resulting occupancy is verified against the
// snapshot's recorded fingerprint; then every journal record past the
// snapshot's cursor is replayed as the exact batch it describes, with
// each attempt's outcome enforced — any divergence is an error, because
// it would mean the restored daemon does not own the state it claims.
func (s *Service) Restore() (*RestoreReport, error) {
	if s.started.Load() {
		return nil, fmt.Errorf("admission: restore after start")
	}
	rep := &RestoreReport{}

	var afterSeq uint64
	if s.cfg.SnapshotPath != "" {
		snap, err := readSnapshot(s.cfg.SnapshotPath)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			if err := s.adoptSnapshot(snap); err != nil {
				return nil, err
			}
			afterSeq = snap.Seq
			rep.SnapshotSeq = snap.Seq
			rep.AdoptedConns = len(snap.Conns)
		}
	}

	if s.cfg.JournalPath != "" {
		recs, err := readJournal(s.cfg.JournalPath, afterSeq)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			opens, closes, err := s.replayRecord(rec)
			if err != nil {
				return nil, err
			}
			rep.ReplayedRecords++
			rep.ReplayedOpens += opens
			rep.ReplayedCloses += closes
		}
	}

	rep.Fingerprint = s.p.Alloc.Fingerprint()
	s.refreshViews()
	return rep, nil
}

// adoptSnapshot reinstates every snapshot connection: the serialized
// reservations are committed into the allocator exactly as recorded,
// then the platform rebuilds channels and configuration for them.
func (s *Service) adoptSnapshot(snap *snapshotFile) error {
	if snap.Width != s.p.Mesh.Spec.Width || snap.Height != s.p.Mesh.Spec.Height ||
		snap.Wheel != s.p.Params.Wheel || snap.NumChannels != s.p.Params.NumChannels {
		return fmt.Errorf("admission: snapshot is for a %dx%d wheel=%d channels=%d platform, have %dx%d wheel=%d channels=%d",
			snap.Width, snap.Height, snap.Wheel, snap.NumChannels,
			s.p.Mesh.Spec.Width, s.p.Mesh.Spec.Height, s.p.Params.Wheel, s.p.Params.NumChannels)
	}
	wheel := s.p.Params.Wheel
	seen := make(map[uint64]bool, len(snap.Conns))
	for _, sc := range snap.Conns {
		if _, ok := s.tenants[sc.Tenant]; !ok {
			return fmt.Errorf("admission: snapshot connection %d names unknown tenant %q", sc.Handle, sc.Tenant)
		}
		if seen[sc.Handle] {
			return fmt.Errorf("admission: snapshot connection %d appears twice", sc.Handle)
		}
		seen[sc.Handle] = true
		if err := checkSnapshotConn(s.p.Mesh.Graph, wheel, sc); err != nil {
			return fmt.Errorf("admission: snapshot connection %d: %w", sc.Handle, err)
		}
	}
	for _, sc := range snap.Conns {
		t := s.tenants[sc.Tenant]
		spec := sc.Spec.spec()
		var conn *core.Connection
		if sc.Tree != nil {
			tree := sc.Tree.multicast(wheel)
			if err := s.p.Alloc.AdoptMulticast(tree); err != nil {
				return fmt.Errorf("admission: adopt connection %d: %w", sc.Handle, err)
			}
			c, err := s.p.RestoreMulticast(spec, tree)
			if err != nil {
				return fmt.Errorf("admission: restore connection %d: %w", sc.Handle, err)
			}
			conn = c
		} else {
			fwd := sc.Fwd.unicast(wheel)
			rev := sc.Rev.unicast(wheel)
			if err := s.p.Alloc.AdoptUnicast(fwd); err != nil {
				return fmt.Errorf("admission: adopt connection %d: %w", sc.Handle, err)
			}
			if err := s.p.Alloc.AdoptUnicast(rev); err != nil {
				s.p.Alloc.ReleaseUnicast(fwd)
				return fmt.Errorf("admission: adopt connection %d: %w", sc.Handle, err)
			}
			c, err := s.p.RestoreUnicast(spec, fwd, rev)
			if err != nil {
				return fmt.Errorf("admission: restore connection %d: %w", sc.Handle, err)
			}
			conn = c
		}
		cost := SlotCost(spec)
		s.conns[sc.Handle] = &liveConn{
			handle:     sc.Handle,
			tenant:     sc.Tenant,
			spec:       spec,
			cost:       cost,
			conn:       conn,
			openedTick: sc.OpenedTick,
			setup:      sc.SetupCycles,
		}
		t.slotsUsed += cost
		t.conns++
		if sc.Handle > s.nextHandle {
			s.nextHandle = sc.Handle
		}
	}
	if _, err := s.p.CompleteConfig(s.cfg.SettleBudget); err != nil {
		return fmt.Errorf("admission: settle restored configuration: %w", err)
	}
	for _, lc := range s.conns {
		if lc.conn.State == core.Opening {
			lc.conn.State = core.Open
		}
	}
	s.seq = snap.Seq
	s.tick = snap.Tick
	s.nextHandle = maxU64(s.nextHandle, snap.NextHandle)

	want, err := strconv.ParseUint(snap.Fingerprint, 16, 64)
	if err != nil {
		return fmt.Errorf("admission: bad snapshot fingerprint %q: %w", snap.Fingerprint, err)
	}
	if got := s.p.Alloc.Fingerprint(); got != want {
		return fmt.Errorf("admission: snapshot fingerprint mismatch: adopted occupancy %016x, snapshot recorded %016x", got, want)
	}
	return nil
}

// checkSnapshotConn refuses a recorded reservation that Adopt* or the
// configuration builder would index out of range with, or that does not
// join the endpoints its spec names. Whether its slots are free is left
// to Adopt*, and whether the whole occupancy is the recorded one to the
// fingerprint check.
func checkSnapshotConn(g *topology.Graph, wheel int, sc snapshotConn) error {
	notNI := func(n topology.NodeID) bool {
		return n < 0 || int(n) >= g.NumNodes() || g.Node(n).Kind != topology.NI
	}
	outside := func(bits uint64) error {
		if wheel < 64 && bits>>uint(wheel) != 0 {
			return fmt.Errorf("slot mask %#x has bits outside the %d-slot wheel", bits, wheel)
		}
		return nil
	}
	spec := sc.Spec
	if m := sc.Tree; m != nil {
		// No depth exceeds a walk over every link once.
		maxDepth := 0
		for l := range g.NumLinks() {
			maxDepth += g.SlotAdvance(topology.LinkID(l))
		}
		if notNI(m.Src) || slices.ContainsFunc(m.Dsts, notNI) || len(m.Dsts) == 0 ||
			len(m.Dests) != len(m.Dsts) || m.Src != spec.Src || !slices.Equal(m.Dsts, spec.Dsts) {
			return fmt.Errorf("tree %d>%v does not match spec %s", m.Src, m.Dsts, spec)
		}
		if err := outside(m.Bits); err != nil {
			return err
		}
		for _, d := range m.Dests {
			if !slices.Contains(m.Dsts, d.Node) || d.Depth < 0 || d.Depth > maxDepth {
				return fmt.Errorf("tree destination %d at depth %d is out of range", d.Node, d.Depth)
			}
		}
		for _, e := range m.Edges {
			if e.Link < 0 || int(e.Link) >= g.NumLinks() || e.Depth < 0 || e.Depth > maxDepth {
				return fmt.Errorf("tree edge on link %d at depth %d is out of range", e.Link, e.Depth)
			}
		}
		return nil
	}
	if len(spec.Dsts) > 0 || sc.Fwd == nil || sc.Rev == nil {
		return fmt.Errorf("unicast lacks its fwd or rev reservation")
	}
	if notNI(spec.Src) || notNI(spec.Dst) || sc.Fwd.Src != spec.Src || sc.Fwd.Dst != spec.Dst ||
		sc.Rev.Src != spec.Dst || sc.Rev.Dst != spec.Src {
		return fmt.Errorf("fwd %d>%d and rev %d>%d do not match spec %s", sc.Fwd.Src, sc.Fwd.Dst, sc.Rev.Src, sc.Rev.Dst, spec)
	}
	for _, u := range []*WireUnicast{sc.Fwd, sc.Rev} {
		for _, pa := range u.Paths {
			if err := outside(pa.Bits); err != nil {
				return err
			}
			if err := checkPath(g, pa.Links, u.Src, u.Dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPath reports whether links run contiguously from src to dst
// through routers only, range-checking every link ID before it indexes
// the graph with it.
func checkPath(g *topology.Graph, links []topology.LinkID, src, dst topology.NodeID) error {
	bad := fmt.Errorf("path %v does not run from %d through routers to %d", links, src, dst)
	at := src
	for i, l := range links {
		if l < 0 || int(l) >= g.NumLinks() {
			return fmt.Errorf("link %d out of range (%d links)", l, g.NumLinks())
		}
		if g.Link(l).From != at || i > 0 && g.Node(at).Kind != topology.Router {
			return bad
		}
		at = g.Link(l).To
	}
	if len(links) == 0 || at != dst {
		return bad
	}
	return nil
}

// replayRecord re-drives one journal record through the platform: the
// teardowns first, then the recorded open batch — every allocation-
// touching attempt in its original order, because the batch engine's
// conflict re-evaluation makes later items' slots depend on earlier
// items of the same batch. Outcomes are enforced: "ok" must commit under
// its recorded handle, "nofit" must fail inside the allocator again, and
// "aborted" (committed, then failed downstream and released) is closed
// right after the batch if the downstream failure does not reproduce.
func (s *Service) replayRecord(rec journalRecord) (opens, closes int, err error) {
	for _, h := range rec.Closes {
		lc, ok := s.conns[h]
		if !ok {
			return opens, closes, fmt.Errorf("admission: journal seq %d closes unknown connection %d", rec.Seq, h)
		}
		if err := s.p.Close(lc.conn); err != nil {
			return opens, closes, fmt.Errorf("admission: journal seq %d close %d: %w", rec.Seq, h, err)
		}
		delete(s.conns, h)
		t := s.tenants[lc.tenant]
		t.slotsUsed -= lc.cost
		t.conns--
		closes++
	}

	if len(rec.Opens) > 0 {
		specs := make([]core.ConnectionSpec, len(rec.Opens))
		for i, jo := range rec.Opens {
			if _, ok := s.tenants[jo.Tenant]; !ok {
				return opens, closes, fmt.Errorf("admission: journal seq %d names unknown tenant %q", rec.Seq, jo.Tenant)
			}
			specs[i] = jo.Spec.spec()
		}
		conns, errs := s.p.OpenBatch(specs)
		for i, jo := range rec.Opens {
			switch jo.Outcome {
			case outcomeOK:
				if errs[i] != nil {
					return opens, closes, fmt.Errorf("admission: journal seq %d open %s recorded ok but replay failed: %w", rec.Seq, jo.Spec, errs[i])
				}
				spec := specs[i]
				if spec.SlotsRev <= 0 && len(spec.Dsts) == 0 {
					spec.SlotsRev = 1
				}
				cost := SlotCost(spec)
				t := s.tenants[jo.Tenant]
				s.conns[jo.Handle] = &liveConn{
					handle: jo.Handle, tenant: jo.Tenant, spec: spec, cost: cost,
					conn: conns[i], openedTick: rec.Tick,
				}
				t.slotsUsed += cost
				t.conns++
				s.nextHandle = maxU64(s.nextHandle, jo.Handle)
				opens++
			case outcomeNoFit:
				if errs[i] == nil {
					return opens, closes, fmt.Errorf("admission: journal seq %d open %s recorded nofit but replay admitted it — state diverged", rec.Seq, jo.Spec)
				}
				if !errors.Is(errs[i], core.ErrBatchAlloc) {
					return opens, closes, fmt.Errorf("admission: journal seq %d open %s recorded nofit but replay failed differently: %w", rec.Seq, jo.Spec, errs[i])
				}
			case outcomeAborted:
				// The original attempt committed its reservation inside the
				// batch (influencing later items), then hit channel
				// exhaustion downstream and was rolled back. If the
				// exhaustion reproduces the rollback already happened; if
				// the open now succeeds, close the connection to reach the
				// same post-batch occupancy. Any other failure — no fit
				// inside the allocator, or a downstream error that is not
				// channel exhaustion — means the replayed platform is not
				// in the recorded state.
				if errs[i] == nil {
					if err := s.p.Close(conns[i]); err != nil {
						return opens, closes, fmt.Errorf("admission: journal seq %d roll back aborted open %s: %w", rec.Seq, jo.Spec, err)
					}
				} else if errors.Is(errs[i], core.ErrBatchAlloc) {
					return opens, closes, fmt.Errorf("admission: journal seq %d open %s recorded aborted but replay found no fit — state diverged", rec.Seq, jo.Spec)
				} else if !errors.Is(errs[i], core.ErrNoChannel) {
					return opens, closes, fmt.Errorf("admission: journal seq %d open %s recorded aborted (channel exhaustion) but replay failed differently — state diverged: %w", rec.Seq, jo.Spec, errs[i])
				}
			default:
				return opens, closes, fmt.Errorf("admission: journal seq %d has unknown outcome %q", rec.Seq, jo.Outcome)
			}
		}
	}

	if _, err := s.p.CompleteConfig(s.cfg.SettleBudget); err != nil {
		return opens, closes, fmt.Errorf("admission: journal seq %d settle: %w", rec.Seq, err)
	}
	for _, lc := range s.conns {
		if lc.conn.State == core.Opening {
			lc.conn.State = core.Open
		}
	}
	s.seq = rec.Seq
	s.tick = rec.Tick
	s.snapDirty++
	return opens, closes, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
