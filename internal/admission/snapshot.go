package admission

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The snapshot is the exact durable state of the control plane: every
// live connection's committed slot reservations serialized verbatim
// (adopted back into a fresh allocator on restore — no re-allocation, so
// the occupancy is reproduced bit-for-bit in O(live connections)), plus
// the journal cursor. Restart = load snapshot + replay the journal
// suffix; the allocator fingerprint recorded here lets the restore path
// prove the reconstruction before replaying a single record.

const snapshotVersion = 1

// snapshotConn is one live connection with its committed reservations.
type snapshotConn struct {
	Handle      uint64         `json:"handle"`
	Tenant      string         `json:"tenant"`
	Spec        WireSpec       `json:"spec"`
	OpenedTick  uint64         `json:"opened_tick"`
	SetupCycles uint64         `json:"setup_cycles"`
	Fwd         *WireUnicast   `json:"fwd,omitempty"`
	Rev         *WireUnicast   `json:"rev,omitempty"`
	Tree        *WireMulticast `json:"tree,omitempty"`
}

// snapshotFile is the on-disk snapshot. Platform geometry is recorded so
// a restore against a differently-built platform fails loudly instead of
// adopting nonsense.
type snapshotFile struct {
	Version     int            `json:"version"`
	Seq         uint64         `json:"seq"`
	Tick        uint64         `json:"tick"`
	NextHandle  uint64         `json:"next_handle"`
	Fingerprint string         `json:"fingerprint"` // hex of alloc.Fingerprint
	Width       int            `json:"width"`
	Height      int            `json:"height"`
	Wheel       int            `json:"wheel"`
	NumChannels int            `json:"num_channels"`
	Conns       []snapshotConn `json:"conns"`
}

// takeSnapshot serializes the loop-owned state to SnapshotPath via a
// temp file + rename, so a crash mid-write leaves the previous snapshot
// intact.
func (s *Service) takeSnapshot() error {
	snap := snapshotFile{
		Version:     snapshotVersion,
		Seq:         s.seq,
		Tick:        s.tick,
		NextHandle:  s.nextHandle,
		Fingerprint: fmt.Sprintf("%016x", s.p.Alloc.Fingerprint()),
		Width:       s.p.Mesh.Spec.Width,
		Height:      s.p.Mesh.Spec.Height,
		Wheel:       s.p.Params.Wheel,
		NumChannels: s.p.Params.NumChannels,
	}
	handles := make([]uint64, 0, len(s.conns))
	for h := range s.conns {
		handles = append(handles, h)
	}
	sortU64(handles)
	for _, h := range handles {
		lc := s.conns[h]
		sc := snapshotConn{
			Handle:      lc.handle,
			Tenant:      lc.tenant,
			Spec:        toWireSpec(lc.spec),
			OpenedTick:  lc.openedTick,
			SetupCycles: lc.setup,
			Fwd:         toWireUnicast(lc.conn.Fwd),
			Rev:         toWireUnicast(lc.conn.Rev),
			Tree:        toWireMulticast(lc.conn.Tree),
		}
		snap.Conns = append(snap.Conns, sc)
	}
	if err := writeSnapshot(s.cfg.SnapshotPath, &snap); err != nil {
		return err
	}
	s.snapDirty = 0
	s.snapshots.Inc()
	return nil
}

// TakeSnapshot asks the service loop to write a snapshot at the next
// tick boundary and waits for the result. Safe to call while serving.
func (s *Service) TakeSnapshot() error {
	_, err := s.snapshot()
	return err
}

// snapshot is TakeSnapshot returning the journal sequence the snapshot
// captured.
func (s *Service) snapshot() (seq uint64, err error) {
	if s.cfg.SnapshotPath == "" {
		return 0, fmt.Errorf("admission: no snapshot path configured")
	}
	if !s.started.Load() {
		return s.seq, s.takeSnapshot()
	}
	if s.closing.Load() {
		return 0, errShuttingDown
	}
	r, ok := s.toLoop(&pending{op: opSnapshot, reply: make(chan reply, 1)})
	switch {
	case !ok || r.status == 503:
		return 0, errShuttingDown
	case r.status != 200:
		return 0, fmt.Errorf("%v", r.body["error"])
	}
	return r.body["seq"].(uint64), nil
}

func writeSnapshot(path string, snap *snapshotFile) error {
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("admission: marshal snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("admission: write snapshot: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("admission: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("admission: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("admission: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("admission: rename snapshot: %w", err)
	}
	return nil
}

// readSnapshot loads a snapshot file; a missing file returns (nil, nil).
func readSnapshot(path string) (*snapshotFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("admission: read snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("admission: parse snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("admission: snapshot version %d (want %d)", snap.Version, snapshotVersion)
	}
	return &snap, nil
}

func sortU64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}
