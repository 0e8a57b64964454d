package admission

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// readings holds one answer from each of the four public readers.
type readings struct {
	fp, epoch, seq, tick uint64
	conns                []ConnInfo
	tenants              []TenantInfo
}

func readAll(s *Service) (r readings) {
	r.fp, r.epoch, r.seq = s.Fingerprint()
	r.tick = s.Tick()
	r.conns = s.Conns()
	r.tenants = s.Tenants()
	return r
}

// ownedState reads the loop-owned state directly; only valid while no
// loop runs.
func ownedState(s *Service) (r readings) {
	r.fp, r.epoch, r.seq = s.p.Alloc.Fingerprint(), s.p.Alloc.Epoch(), s.seq
	r.tick = s.tick
	r.conns = s.connInfos()
	r.tenants = s.tenantInfos()
	return r
}

// TestReadersWithoutLoop: before Start (here right after Restore) and
// once Stop has returned, no loop answers the control queue, so the four
// readers must read the loop-owned state directly, and equal it. A
// reader that waited for a loop instead hangs the test until -timeout.
func TestReadersWithoutLoop(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tenants:      defaultTenants(),
		JournalPath:  filepath.Join(dir, "journal.ndjson"),
		SnapshotPath: filepath.Join(dir, "snapshot.json"),
	}
	s, srv := testService(t, 4, 4, cfg)
	for i := 0; i < 6; i++ {
		if status, body := post(t, srv.URL, "/v1/connections", openReq(defaultTenants()[i%4].Name, i, i+6, 1+i%2)); status != http.StatusOK {
			t.Fatalf("open %d: %d %v", i, status, body)
		}
	}
	srv.Close()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	stopped := readAll(s)
	if want := ownedState(s); !reflect.DeepEqual(stopped, want) {
		t.Fatalf("after Stop the readers answer %+v, the stopped loop owns %+v", stopped, want)
	}
	if len(stopped.conns) != 6 || stopped.seq != 6 {
		t.Fatalf("after Stop: %d connections at seq %d, want 6 at 6", len(stopped.conns), stopped.seq)
	}

	s2, err := NewService(testPlatform(t, 4, 4), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if _, err := s2.Restore(); err != nil {
		t.Fatal(err)
	}
	restored := readAll(s2)
	if want := ownedState(s2); !reflect.DeepEqual(restored, want) {
		t.Fatalf("before Start the readers answer %+v, the service owns %+v", restored, want)
	}
	if restored.fp != stopped.fp || restored.seq != stopped.seq || !reflect.DeepEqual(restored.conns, stopped.conns) {
		t.Fatalf("restored readers %+v, stopped service %+v", restored, stopped)
	}
}

// TestReadDuringTickSeesPostTickState: a read issued while the loop is
// forming and running a tick waits for that tick and reports its result.
// A long gather window holds the tick open after the loop has taken the
// open off the arrival queue; the read is issued inside that window.
func TestReadDuringTickSeesPostTickState(t *testing.T) {
	s, srv := testService(t, 4, 4, Config{GatherWindow: 300 * time.Millisecond})
	tick0 := s.Tick()
	opened := make(chan uint64, 1)
	go func() {
		defer close(opened)
		resp, err := http.Post(srv.URL+"/v1/connections", "application/json",
			strings.NewReader(`{"tenant":"alpha","src":"1,0","dst":"3,1","slots_fwd":2}`))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var rep struct {
			Handle uint64 `json:"handle"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("open: status %d, %v", resp.StatusCode, err)
			return
		}
		opened <- rep.Handle
	}()
	// The loop alone takes from arrivals: an empty arrival queue with the
	// open still pending means the tick has begun.
	deadline := time.Now().Add(5 * time.Second)
	for s.tenants["alpha"].pending.Load() != 1 || len(s.arrivals) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the loop never took the open")
		}
		time.Sleep(time.Millisecond)
	}
	conns := s.Conns()
	tick := s.Tick()
	handle, ok := <-opened
	if !ok {
		t.Fatal("open failed")
	}
	if len(conns) != 1 || conns[0].Handle != handle || tick != tick0+1 {
		t.Fatalf("read during the tick saw %+v at tick %d; want handle %d at tick %d", conns, tick, handle, tick0+1)
	}
}

// TestReadsUnderLoad: readers that re-issue every read the moment it is
// answered neither fail nor hold off the ticks a writer needs; every
// reader sees the tick and the journal sequence only move forward.
func TestReadsUnderLoad(t *testing.T) {
	s, srv := testService(t, 4, 4, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastTick, lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var tick, seq uint64
				if r%2 == 0 {
					_, _, seq = s.Fingerprint()
					tick = s.Tick()
					_ = s.Conns()
					_ = s.Tenants()
				} else {
					var fp struct {
						Seq  uint64 `json:"seq"`
						Tick uint64 `json:"tick"`
					}
					if err := getJSON(http.DefaultClient, srv.URL+"/v1/fingerprint", &fp); err != nil {
						t.Error(err)
						return
					}
					var list struct{}
					if err := getJSON(http.DefaultClient, srv.URL+"/v1/connections", &list); err != nil {
						t.Error(err)
						return
					}
					tick, seq = fp.Tick, fp.Seq
				}
				if tick < lastTick || seq < lastSeq {
					t.Errorf("reader %d went back from tick %d seq %d to tick %d seq %d", r, lastTick, lastSeq, tick, seq)
					return
				}
				lastTick, lastSeq = tick, seq
				reads.Add(1)
			}
		}(r)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 50; i++ {
		status, body := post(t, srv.URL, "/v1/connections", openReq("beta", i%16, (i+5)%16, 1))
		if status != http.StatusOK {
			t.Fatalf("open %d under read load: %d %v", i, status, body)
		}
		if status, body := del(t, srv.URL, uint64(body["handle"].(float64)), "beta"); status != http.StatusOK {
			t.Fatalf("close %d under read load: %d %v", i, status, body)
		}
	}
	if _, _, seq := s.Fingerprint(); seq != 100 {
		t.Fatalf("journal sequence %d after 100 mutations", seq)
	}
	if reads.Load() == 0 {
		t.Fatal("no read completed")
	}
}
