package admission

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writtenSnapshot runs a service on a 4x4 mesh that opens a unicast and
// a multicast connection, stops it, and returns the snapshot it wrote.
func writtenSnapshot(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.json")
	s, srv := testService(t, 4, 4, Config{Tenants: defaultTenants(), SnapshotPath: path})
	if status, body := post(t, srv.URL, "/v1/connections", openReq("alpha", 0, 5, 2)); status != 200 {
		t.Fatalf("unicast open: %d %v", status, body)
	}
	if status, body := post(t, srv.URL, "/v1/connections", map[string]any{
		"tenant": "beta", "src": niRef(3), "dsts": niRefs(12, 15), "slots_fwd": 1,
	}); status != 200 {
		t.Fatalf("multicast open: %d %v", status, body)
	}
	srv.Close()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restoreSnapshot restores data onto a fresh 4x4 platform.
func restoreSnapshot(t testing.TB, data []byte) (*Service, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewService(testPlatform(t, 4, 4), nil, Config{Tenants: defaultTenants(), SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Stop() })
	_, err = s.Restore()
	return s, err
}

// TestRestoreRefusesCorruptSnapshot: a snapshot whose reservations the
// allocator or the configuration builder would index out of range with
// is refused before anything is adopted, with an error naming the
// connection, instead of panicking the restarting daemon.
func TestRestoreRefusesCorruptSnapshot(t *testing.T) {
	good := writtenSnapshot(t)
	var snap snapshotFile
	if err := json.Unmarshal(good, &snap); err != nil {
		t.Fatal(err)
	}
	uni, multi := -1, -1
	for i, sc := range snap.Conns {
		if sc.Tree != nil {
			multi = i
		} else {
			uni = i
		}
	}
	if uni < 0 || multi < 0 {
		t.Fatalf("snapshot lacks a unicast or a multicast connection: %s", good)
	}
	if _, err := restoreSnapshot(t, good); err != nil {
		t.Fatalf("the unmodified snapshot: %v", err)
	}

	rows := []struct {
		name   string
		conn   int
		mutate func(sc *snapshotConn)
	}{
		{"unicast without fwd", uni, func(sc *snapshotConn) { sc.Fwd = nil }},
		{"unicast without rev", uni, func(sc *snapshotConn) { sc.Rev = nil }},
		{"link out of range", uni, func(sc *snapshotConn) { sc.Fwd.Paths[0].Links[1] = 10000 }},
		{"negative link", uni, func(sc *snapshotConn) { sc.Rev.Paths[0].Links[0] = -1 }},
		{"discontinuous path", uni, func(sc *snapshotConn) {
			l := sc.Fwd.Paths[0].Links
			l[1], l[2] = l[2], l[1]
		}},
		{"path does not start at src", uni, func(sc *snapshotConn) {
			sc.Fwd.Paths[0].Links = sc.Fwd.Paths[0].Links[1:]
		}},
		{"path ends short of dst", uni, func(sc *snapshotConn) {
			l := sc.Rev.Paths[0].Links
			sc.Rev.Paths[0].Links = l[:len(l)-1]
		}},
		// The fingerprint check alone also refuses this one.
		{"mask bits outside the wheel", uni, func(sc *snapshotConn) { sc.Fwd.Paths[0].Bits |= 1 << 40 }},
		{"multicast edge link out of range", multi, func(sc *snapshotConn) { sc.Tree.Edges[0].Link = 10000 }},
		{"multicast dest node out of range", multi, func(sc *snapshotConn) { sc.Tree.Dests[0].Node = 1 << 40 }},
		{"multicast dst out of range", multi, func(sc *snapshotConn) {
			sc.Tree.Dsts[1], sc.Spec.Dsts[1] = 1<<40, 1<<40
		}},
		{"multicast edge depth out of range", multi, func(sc *snapshotConn) { sc.Tree.Edges[0].Depth = 1 << 40 }},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var bad snapshotFile
			if err := json.Unmarshal(good, &bad); err != nil {
				t.Fatal(err)
			}
			r.mutate(&bad.Conns[r.conn])
			data, err := json.Marshal(&bad)
			if err != nil {
				t.Fatal(err)
			}
			_, err = restoreSnapshot(t, data)
			want := fmt.Sprintf("connection %d", bad.Conns[r.conn].Handle)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("restore: %v, want an error naming %q", err, want)
			}
		})
	}
}

// FuzzRestoreSnapshot: whatever a snapshot file holds, Restore either
// refuses it or adopts a state whose allocator fingerprint is the one
// the file recorded; it never panics.
func FuzzRestoreSnapshot(f *testing.F) {
	f.Add(writtenSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := restoreSnapshot(t, data)
		if err != nil {
			return
		}
		var snap snapshotFile
		if json.Unmarshal(data, &snap) != nil {
			t.Fatal("restore accepted a snapshot that does not parse")
		}
		want, err := strconv.ParseUint(snap.Fingerprint, 16, 64)
		if got := s.p.Alloc.Fingerprint(); err != nil || got != want {
			t.Fatalf("restored fingerprint %016x, snapshot recorded %q", got, snap.Fingerprint)
		}
	})
}
