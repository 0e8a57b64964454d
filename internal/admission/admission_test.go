package admission

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"daelite/internal/core"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

func testPlatform(t testing.TB, w, h int) *core.Platform {
	t.Helper()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func defaultTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "alpha", Class: Gold},
		{Name: "beta", Class: Silver},
		{Name: "gamma", Class: Bronze},
		{Name: "delta", Class: Bronze},
	}
}

// testService starts a service plus HTTP server over a fresh platform
// and tears both down with the test.
func testService(t testing.TB, w, h int, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Tenants == nil {
		cfg.Tenants = defaultTenants()
	}
	p := testPlatform(t, w, h)
	s, err := NewService(p, telemetry.NewRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := s.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return s, srv
}

func post(t testing.TB, base, path string, body any) (int, map[string]any) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s reply: %v", path, err)
	}
	return resp.StatusCode, out
}

func del(t testing.TB, base string, handle uint64, tenant string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/connections/%d?tenant=%s", base, handle, tenant), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// niRef spells NI n of the 4x4 test mesh as an "x,y" coordinate ref —
// raw small integers would hit router node IDs, which the service
// rejects.
func niRef(n int) string { return fmt.Sprintf("%d,%d", n%4, n/4) }

func niRefs(ns ...int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = niRef(n)
	}
	return out
}

func openReq(tenant string, src, dst int, slots int) map[string]any {
	return map[string]any{"tenant": tenant, "src": niRef(src), "dst": niRef(dst), "slots_fwd": slots}
}

func TestOpenCloseRoundTrip(t *testing.T) {
	s, srv := testService(t, 4, 4, Config{})
	m := s.Platform().Mesh

	status, body := post(t, srv.URL, "/v1/connections", map[string]any{
		"tenant": "alpha", "src": "0,1", "dst": "3,2", "slots_fwd": 2,
	})
	if status != http.StatusOK {
		t.Fatalf("open: status %d body %v", status, body)
	}
	handle := uint64(body["handle"].(float64))
	if body["setup_cycles"].(float64) <= 0 {
		t.Fatalf("open reply has no set-up span: %v", body)
	}

	conns := s.Conns()
	if len(conns) != 1 || conns[0].Handle != handle || conns[0].Tenant != "alpha" {
		t.Fatalf("conns view: %+v", conns)
	}
	if conns[0].Spec.Src != m.NI(0, 1, 0) || conns[0].Spec.Dst != m.NI(3, 2, 0) {
		t.Fatalf("coordinate resolution: %+v", conns[0].Spec)
	}

	// Wrong tenant cannot tear it down.
	if status, _ := del(t, srv.URL, handle, "beta"); status != http.StatusForbidden {
		t.Fatalf("cross-tenant close: status %d", status)
	}
	if status, _ := del(t, srv.URL, handle, "alpha"); status != http.StatusOK {
		t.Fatalf("close: status %d", status)
	}
	if status, _ := del(t, srv.URL, handle, "alpha"); status != http.StatusNotFound {
		t.Fatalf("double close: status %d", status)
	}
	if got := len(s.Conns()); got != 0 {
		t.Fatalf("conns after close: %d", got)
	}
}

// TestAttachedRegistryStaysBounded: with the registry attached to the
// platform, as daelite admd attaches it, open+close churn only moves
// counters. The NDJSON export keeps its length and the registry its
// metric count from N rounds to 2N, and config_spans_total counts every
// set-up.
func TestAttachedRegistryStaysBounded(t *testing.T) {
	const rounds = 20
	p := testPlatform(t, 4, 4)
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, 0)
	s, err := NewService(p, reg, Config{Tenants: defaultTenants()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		if err := s.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()

	churn := func(n int) {
		for i := 0; i < n; i++ {
			status, body := post(t, srv.URL, "/v1/connections", openReq("alpha", 1, 14, 1))
			if status != http.StatusOK {
				t.Fatalf("open: status %d body %v", status, body)
			}
			if status, body := del(t, srv.URL, uint64(body["handle"].(float64)), "alpha"); status != http.StatusOK {
				t.Fatalf("close: status %d body %v", status, body)
			}
		}
	}
	ndLines := func() int {
		var b bytes.Buffer
		if err := telemetry.WriteNDJSON(&b, reg, 0); err != nil {
			t.Fatal(err)
		}
		return strings.Count(b.String(), "\n")
	}
	scrape := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	churn(rounds)
	lines, metrics := ndLines(), reg.NumMetrics()
	churn(rounds)
	if got := ndLines(); got != lines {
		t.Errorf("NDJSON export grew from %d lines after %d rounds to %d after %d", lines, rounds, got, 2*rounds)
	}
	if got := reg.NumMetrics(); got != metrics {
		t.Errorf("registry grew from %d metrics to %d", metrics, got)
	}
	if want := fmt.Sprintf("daelite_config_spans_total{op=\"setup\"} %d\n", 2*rounds); !strings.Contains(scrape(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

func TestWhatIfIsReadOnly(t *testing.T) {
	s, srv := testService(t, 4, 4, Config{})
	fp0, ep0, seq0 := s.Fingerprint()

	status, body := post(t, srv.URL, "/v1/whatif", openReq("alpha", 0, 5, 2))
	if status != http.StatusOK || body["fits"] != true {
		t.Fatalf("whatif: status %d body %v", status, body)
	}
	// Saturating demand must report fits=false, still read-only.
	status, body = post(t, srv.URL, "/v1/whatif", openReq("alpha", 0, 5, 1000))
	if status != http.StatusOK || body["fits"] != false {
		t.Fatalf("whatif infeasible: status %d body %v", status, body)
	}

	fp1, ep1, seq1 := s.Fingerprint()
	if fp1 != fp0 || ep1 != ep0 || seq1 != seq0 {
		t.Fatalf("whatif mutated state: fp %x->%x epoch %d->%d seq %d->%d", fp0, fp1, ep0, ep1, seq0, seq1)
	}
}

// TestQuotaEnforcement drives the documented quota arithmetic through
// the full service: unicast costs forward+reverse slots, a multicast
// tree costs its forward slots exactly once however many destinations
// it reaches, and exactly-at-quota is admissible.
func TestQuotaEnforcement(t *testing.T) {
	cases := []struct {
		name   string
		quota  TenantConfig
		reqs   []map[string]any
		status []int
	}{
		{
			name:  "exactly at slot quota admissible",
			quota: TenantConfig{Name: "q", Class: Gold, MaxSlots: 6},
			reqs: []map[string]any{
				// cost 3 (fwd 2 + rev default 1), then cost 3 -> exactly 6.
				openReq("q", 0, 5, 2),
				openReq("q", 1, 6, 2),
			},
			status: []int{200, 200},
		},
		{
			name:  "one past slot quota rejected",
			quota: TenantConfig{Name: "q", Class: Gold, MaxSlots: 6},
			reqs: []map[string]any{
				openReq("q", 0, 5, 2), // cost 3
				openReq("q", 1, 6, 2), // cost 3 -> at quota
				openReq("q", 2, 7, 1), // cost 2 -> over
			},
			status: []int{200, 200, 429},
		},
		{
			name:  "explicit reverse slots charged",
			quota: TenantConfig{Name: "q", Class: Gold, MaxSlots: 5},
			reqs: []map[string]any{
				{"tenant": "q", "src": niRef(0), "dst": niRef(5), "slots_fwd": 2, "slots_rev": 4}, // cost 6 > 5
			},
			status: []int{429},
		},
		{
			name:  "multicast tree counted once",
			quota: TenantConfig{Name: "q", Class: Gold, MaxSlots: 4},
			reqs: []map[string]any{
				// 3 destinations but cost = slots_fwd = 4, exactly at quota.
				{"tenant": "q", "src": niRef(0), "dsts": niRefs(5, 10, 15), "slots_fwd": 4},
			},
			status: []int{200},
		},
		{
			name:  "multicast over quota rejected",
			quota: TenantConfig{Name: "q", Class: Gold, MaxSlots: 4},
			reqs: []map[string]any{
				{"tenant": "q", "src": niRef(0), "dsts": niRefs(5, 10), "slots_fwd": 5},
			},
			status: []int{429},
		},
		{
			name:  "connection count quota",
			quota: TenantConfig{Name: "q", Class: Gold, MaxConns: 2},
			reqs: []map[string]any{
				openReq("q", 0, 5, 1),
				openReq("q", 1, 6, 1),
				openReq("q", 2, 7, 1),
			},
			status: []int{200, 200, 429},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := testService(t, 4, 4, Config{Tenants: []TenantConfig{tc.quota}})
			for i, req := range tc.reqs {
				status, body := post(t, srv.URL, "/v1/connections", req)
				if status != tc.status[i] {
					t.Fatalf("request %d: status %d (want %d), body %v", i, status, tc.status[i], body)
				}
			}
		})
	}
}

// TestQuotaFreedByTeardown checks teardowns release quota within the
// same service lifetime.
func TestQuotaFreedByTeardown(t *testing.T) {
	_, srv := testService(t, 4, 4, Config{Tenants: []TenantConfig{{Name: "q", MaxSlots: 3}}})
	status, body := post(t, srv.URL, "/v1/connections", openReq("q", 0, 5, 2)) // cost 3
	if status != 200 {
		t.Fatalf("open: %d %v", status, body)
	}
	h := uint64(body["handle"].(float64))
	if status, _ := post(t, srv.URL, "/v1/connections", openReq("q", 1, 6, 1)); status != 429 {
		t.Fatalf("second open at quota: %d", status)
	}
	if status, _ := del(t, srv.URL, h, "q"); status != 200 {
		t.Fatalf("close: %d", status)
	}
	if status, _ := post(t, srv.URL, "/v1/connections", openReq("q", 1, 6, 2)); status != 200 {
		t.Fatalf("open after free: %d", status)
	}
}

func TestBackpressureQueueFull(t *testing.T) {
	// A service that is never started cannot drain its queue; submits
	// past the tenant bound must be refused, not block.
	p := testPlatform(t, 4, 4)
	s, err := NewService(p, nil, Config{Tenants: []TenantConfig{{Name: "q", QueueDepth: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	tn := s.tenants["q"]
	for i := 0; i < 3; i++ {
		pd := &pending{op: opOpen, t: tn, reply: make(chan reply, 1)}
		if err := s.submit(pd); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	pd := &pending{op: opOpen, t: tn, reply: make(chan reply, 1)}
	if err := s.submit(pd); err != errQueueFull {
		t.Fatalf("submit past bound: %v", err)
	}
	if got := tn.queueFull.Value(); got != 1 {
		t.Fatalf("queue_full counter: %d", got)
	}
}

// TestDRRFairShares overloads the service from one gold and one bronze
// tenant with identical demand and checks the gold tenant's accepted
// share tracks its 4x weight while both make progress.
func TestDRRFairShares(t *testing.T) {
	tenants := []TenantConfig{
		{Name: "gold", Class: Gold, QueueDepth: 4096},
		{Name: "bronze", Class: Bronze, QueueDepth: 4096},
	}
	p := testPlatform(t, 4, 4)
	// Quantum 1 against cost-1 requests: one full DRR round drafts
	// weight-proportional counts (bronze 1 + gold 4 = 5) and MaxBatch 10
	// fits exactly two rounds, so the proportion survives truncation.
	s, err := NewService(p, nil, Config{Tenants: tenants, MaxBatch: 10, DRRQuantum: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Preload both FIFOs directly (service not started: deterministic),
	// then observe the draft order.
	mkPending := func(tn *tenant, i int) *pending {
		spec := core.ConnectionSpec{Src: p.Mesh.NI(i%4, (i/4)%4, 0), Dst: p.Mesh.NI(3-(i%4), 3-((i/4)%4), 0), SlotsFwd: 1, SlotsRev: 1}
		if spec.Src == spec.Dst {
			spec.Dst = p.Mesh.NI((i+1)%4, 0, 0)
		}
		return &pending{op: opWhatIf, t: tn, spec: spec, cost: SlotCost(spec), reply: make(chan reply, 1)}
	}
	for i := 0; i < 100; i++ {
		s.enqueue(mkPending(s.tenants["gold"], i))
		s.enqueue(mkPending(s.tenants["bronze"], i))
	}
	counts := map[string]int{}
	// Draft a few batches and count per-tenant drafts.
	for round := 0; round < 5; round++ {
		opens, whatifs := s.draft()
		for _, pd := range append(opens, whatifs...) {
			counts[pd.t.cfg.Name]++
		}
	}
	if counts["gold"] == 0 || counts["bronze"] == 0 {
		t.Fatalf("starvation: %v", counts)
	}
	ratio := float64(counts["gold"]) / float64(counts["bronze"])
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("gold/bronze draft ratio %.2f (want ~4): %v", ratio, counts)
	}
}

// TestSnapshotReplayFingerprint is the durability acceptance test: run
// a mixed workload, stop, then bring up a fresh platform from the
// snapshot + journal and require the identical allocator fingerprint.
func TestSnapshotReplayFingerprint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tenants:       defaultTenants(),
		JournalPath:   filepath.Join(dir, "journal.ndjson"),
		SnapshotPath:  filepath.Join(dir, "snapshot.json"),
		SnapshotEvery: 7, // force mid-run snapshots so replay starts from a suffix
	}
	s, srv := testService(t, 4, 4, cfg)

	var handles []uint64
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < 60; i++ {
		tn := tenants[i%len(tenants)]
		switch {
		case i%5 == 4 && len(handles) > 0:
			h := handles[0]
			handles = handles[1:]
			del(t, srv.URL, h, tenants[0])
		case i%7 == 3:
			post(t, srv.URL, "/v1/connections", map[string]any{
				"tenant": tn, "src": niRef(i % 16), "dsts": niRefs((i+3)%16, (i+7)%16), "slots_fwd": 1 + i%2,
			})
		default:
			status, body := post(t, srv.URL, "/v1/connections", openReq(tn, i%16, (i+5)%16, 1+i%3))
			if status == 200 && tn == tenants[0] {
				handles = append(handles, uint64(body["handle"].(float64)))
			}
		}
	}

	srv.Close()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	wantFP, _, wantSeq := s.Fingerprint()
	wantConns := len(s.Conns())
	wantTenants := s.Tenants()

	// "Restart": fresh platform, same durable state.
	p2 := testPlatform(t, 4, 4)
	s2, err := NewService(p2, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()

	gotFP, _, gotSeq := s2.Fingerprint()
	if gotFP != wantFP {
		t.Fatalf("fingerprint after restore: %016x, want %016x (report %+v)", gotFP, wantFP, rep)
	}
	if gotSeq != wantSeq {
		t.Fatalf("journal cursor after restore: %d, want %d", gotSeq, wantSeq)
	}
	if got := len(s2.Conns()); got != wantConns {
		t.Fatalf("conns after restore: %d, want %d", got, wantConns)
	}
	gotTenants := s2.Tenants()
	for i := range wantTenants {
		if wantTenants[i].SlotsUsed != gotTenants[i].SlotsUsed || wantTenants[i].Conns != gotTenants[i].Conns {
			t.Fatalf("tenant %s accounting after restore: %+v, want %+v", wantTenants[i].Name, gotTenants[i], wantTenants[i])
		}
	}
	if rep.AdoptedConns == 0 && rep.ReplayedRecords == 0 {
		t.Fatalf("restore did nothing: %+v", rep)
	}

	// The restored service must keep serving.
	s2.Start()
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	// 200 when capacity remains, 409 when the workload filled the wheel —
	// either proves the restored service is live and consistent.
	if status, body := post(t, srv2.URL, "/v1/connections", openReq("beta", 2, 9, 1)); status != 200 && status != 409 {
		t.Fatalf("open after restore: %d %v", status, body)
	}
}

// TestJournalOnlyReplay restores with no snapshot at all: the entire
// history replays from the empty platform.
func TestJournalOnlyReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Tenants: defaultTenants(), JournalPath: filepath.Join(dir, "journal.ndjson")}
	s, srv := testService(t, 4, 4, cfg)
	var lastHandle uint64
	for i := 0; i < 20; i++ {
		status, body := post(t, srv.URL, "/v1/connections", openReq("alpha", i%16, (i+5)%16, 1))
		if status == 200 {
			lastHandle = uint64(body["handle"].(float64))
		}
	}
	del(t, srv.URL, lastHandle, "alpha")
	srv.Close()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	wantFP, _, _ := s.Fingerprint()

	p2 := testPlatform(t, 4, 4)
	s2, err := NewService(p2, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	rep, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotSeq != 0 || rep.AdoptedConns != 0 {
		t.Fatalf("unexpected snapshot use: %+v", rep)
	}
	if gotFP, _, _ := s2.Fingerprint(); gotFP != wantFP {
		t.Fatalf("journal-only fingerprint: %016x, want %016x", gotFP, wantFP)
	}
}

// TestSnapshotGeometryMismatch must fail loudly, not adopt nonsense.
func TestSnapshotGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Tenants: defaultTenants(), SnapshotPath: filepath.Join(dir, "snapshot.json")}
	s, srv := testService(t, 4, 4, cfg)
	post(t, srv.URL, "/v1/connections", openReq("alpha", 0, 5, 1))
	srv.Close()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}

	p2 := testPlatform(t, 3, 3)
	s2, err := NewService(p2, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if _, err := s2.Restore(); err == nil {
		t.Fatal("restore adopted a snapshot for a different platform")
	}
}

func TestGracefulStopDrains(t *testing.T) {
	s, srv := testService(t, 4, 4, Config{})
	// Queue work, then stop: every queued request must still be answered.
	type res struct {
		status int
	}
	results := make(chan res, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			status, _ := post(t, srv.URL, "/v1/connections", openReq("alpha", i%16, (i+3)%16, 1))
			results <- res{status}
		}(i)
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 16; i++ {
		select {
		case r := <-results:
			if r.status != 200 && r.status != 409 && r.status != 503 {
				t.Fatalf("unexpected status %d", r.status)
			}
		case <-deadline:
			t.Fatal("requests unanswered")
		}
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	// After stop, submits are refused.
	if err := s.submit(&pending{op: opOpen, t: s.tenants["alpha"], reply: make(chan reply, 1)}); err != errShuttingDown {
		t.Fatalf("submit after stop: %v", err)
	}
}

func TestJournalTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.ndjson")
	good := journalRecord{Seq: 1, Tick: 1, Opens: []journalOpen{{Handle: 1, Tenant: "alpha", Outcome: outcomeOK}}}
	data, _ := json.Marshal(good)
	if err := os.WriteFile(path, append(append(data, '\n'), []byte(`{"seq":2,"tick":2,"op`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("torn tail: %+v", recs)
	}

	// The same fragment followed by a well-formed line is not a torn
	// tail but mid-file corruption: refused, naming the line.
	more, _ := json.Marshal(journalRecord{Seq: 3, Tick: 3})
	if err := os.WriteFile(path, append(append(append(data, '\n'), `{"seq":2,"tick":2,"op`+"\n"...), more...), 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err := readJournal(path, 0); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("mid-file garbage: got %+v, %v; want an error naming line 2", recs, err)
	}
}

// TestTornTailSurvivesSecondRestart: after a restart over a torn tail the
// next record must start on a line of its own. Glued onto the fragment,
// it and every later record would be dropped, without an error, by the
// second restart.
func TestTornTailSurvivesSecondRestart(t *testing.T) {
	cfg := Config{Tenants: defaultTenants(), JournalPath: filepath.Join(t.TempDir(), "journal.ndjson")}
	// restart brings a service up over the journal, replays it, opens
	// connections between the given NI pairs and stops; it returns the
	// connection count and the allocator fingerprint.
	restart := func(opens ...[2]int) (int, uint64) {
		s, err := NewService(testPlatform(t, 4, 4), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Restore(); err != nil {
			t.Fatal(err)
		}
		s.Start()
		srv := httptest.NewServer(s.Handler())
		for _, o := range opens {
			if status, body := post(t, srv.URL, "/v1/connections", openReq("alpha", o[0], o[1], 1)); status != http.StatusOK {
				t.Fatalf("open %v: status %d body %v", o, status, body)
			}
		}
		srv.Close()
		if err := s.Stop(); err != nil {
			t.Fatal(err)
		}
		fp, _, _ := s.Fingerprint()
		return len(s.Conns()), fp
	}
	restart([2]int{0, 5})
	f, err := os.OpenFile(cfg.JournalPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"tick":99,"op`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	n, fp := restart([2]int{1, 6}, [2]int{2, 7})
	if n != 3 {
		t.Fatalf("after the torn-tail restart: %d connections, want 3", n)
	}
	if n2, fp2 := restart(); n2 != n || fp2 != fp {
		t.Fatalf("second restart rebuilt %d connections (fingerprint %016x), want %d (%016x)", n2, fp2, n, fp)
	}
}

// FuzzReadJournal: whatever the bytes, readJournal does not panic; a nil
// error returns exactly the records of the lines that parse; and an
// unparsable line followed by a well-formed one is always an error.
func FuzzReadJournal(f *testing.F) {
	good, _ := json.Marshal(journalRecord{Seq: 1, Tick: 1, Opens: []journalOpen{{Handle: 1, Tenant: "alpha", Outcome: outcomeOK}}})
	next, _ := json.Marshal(journalRecord{Seq: 2, Tick: 2, Closes: []uint64{1}})
	f.Add(string(good) + "\n" + string(next) + "\n")
	f.Add(string(good) + "\n" + `{"seq":2,"tick":2,"op`)
	f.Add(string(good) + "\n" + `{"seq":2,"tick":2,"op` + "\n" + string(next) + "\n")
	f.Add(`{"seq":99,"tick":99,"op` + string(good) + "\n" + string(next) + "\n")
	f.Fuzz(func(t *testing.T, data string) {
		path := filepath.Join(t.TempDir(), "journal.ndjson")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := readJournal(path, 0)
		var parsed []journalRecord
		bad, corrupt := false, false
		for _, line := range strings.Split(data, "\n") {
			line = strings.TrimSuffix(line, "\r")
			if line == "" {
				continue
			}
			var rec journalRecord
			if json.Unmarshal([]byte(line), &rec) != nil {
				bad = true
				continue
			}
			corrupt = corrupt || bad
			if rec.Seq > 0 {
				parsed = append(parsed, rec)
			}
		}
		if corrupt && err == nil {
			t.Fatalf("garbage before a well-formed line read without error: %+v", recs)
		}
		if err == nil && (len(recs) != len(parsed) || len(recs) > 0 && !reflect.DeepEqual(recs, parsed)) {
			t.Fatalf("read %+v, want the parsed lines %+v", recs, parsed)
		}
	})
}

// TestExpensiveOpenEventuallyDrafted guards against head-of-line wedge:
// an open whose slot cost exceeds the nominal DRR burst cap
// (4 x weight x quantum) must still accumulate deficit up to its cost
// and be drafted, not block its tenant's FIFO forever.
func TestExpensiveOpenEventuallyDrafted(t *testing.T) {
	p := testPlatform(t, 4, 4)
	s, err := NewService(p, nil, Config{
		Tenants:    []TenantConfig{{Name: "b", Class: Bronze}},
		DRRQuantum: 1, // nominal cap 4*1*1 = 4
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := core.AllocItem(core.ConnectionSpec{
		Src: p.Mesh.NI(0, 1, 0), Dst: p.Mesh.NI(3, 2, 0), SlotsFwd: 3, SlotsRev: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pd := &pending{op: opOpen, t: s.tenants["b"], spec: spec, cost: SlotCost(spec), reply: make(chan reply, 1)}
	if pd.cost <= 4 {
		t.Fatalf("test needs a cost above the nominal cap, got %d", pd.cost)
	}
	s.enqueue(pd)
	drafted := false
	for i := 0; i < 4*pd.cost && !drafted; i++ {
		opens, _ := s.draft()
		for _, got := range opens {
			if got == pd {
				drafted = true
			}
		}
	}
	if !drafted {
		t.Fatalf("cost-%d open never drafted: deficit cap wedges the tenant FIFO", pd.cost)
	}
}

// TestOversizedBodyRejected: an open or what-if body over the 1 MiB limit
// is refused with 413 before it is decoded in full.
func TestOversizedBodyRejected(t *testing.T) {
	_, srv := testService(t, 4, 4, Config{})
	big := openReq("alpha", 0, 5, 1)
	big["pad"] = strings.Repeat("x", maxBodyBytes)
	for _, path := range []string{"/v1/connections", "/v1/whatif"} {
		if status, body := post(t, srv.URL, path, big); status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d body %v, want 413", path, status, body)
		}
	}
	if status, body := post(t, srv.URL, "/v1/connections", openReq("alpha", 0, 5, 1)); status != http.StatusOK {
		t.Fatalf("open after the oversized bodies: status %d body %v", status, body)
	}
}

// TestOverWheelOpenRejected: an open demanding more slots than the TDM
// wheel can never fit and must be refused at the wire (bounding queued
// costs), while the same demand as a what-if stays a read-only probe.
func TestOverWheelOpenRejected(t *testing.T) {
	s, srv := testService(t, 4, 4, Config{})
	wheel := s.Platform().Params.Wheel

	if status, _ := post(t, srv.URL, "/v1/connections", openReq("alpha", 0, 5, wheel+1)); status != http.StatusBadRequest {
		t.Fatalf("over-wheel forward demand: status %d", status)
	}
	rev := openReq("alpha", 0, 5, 1)
	rev["slots_rev"] = wheel + 1
	if status, _ := post(t, srv.URL, "/v1/connections", rev); status != http.StatusBadRequest {
		t.Fatalf("over-wheel reverse demand: status %d", status)
	}
	status, body := post(t, srv.URL, "/v1/whatif", openReq("alpha", 0, 5, wheel+1))
	if status != http.StatusOK || body["fits"] != false {
		t.Fatalf("over-wheel whatif: status %d body %v", status, body)
	}
}

// TestStopAnswersQueuedStragglers: a request accepted into the arrival
// queue that no loop will ever drain (service never started) must be
// answered 503 by Stop, not leak its blocked handler.
func TestStopAnswersQueuedStragglers(t *testing.T) {
	p := testPlatform(t, 4, 4)
	s, err := NewService(p, nil, Config{Tenants: []TenantConfig{{Name: "q"}}})
	if err != nil {
		t.Fatal(err)
	}
	pd := &pending{op: opOpen, t: s.tenants["q"], reply: make(chan reply, 1)}
	if err := s.submit(pd); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case rep := <-pd.reply:
		if rep.status != 503 {
			t.Fatalf("straggler status: %d", rep.status)
		}
	default:
		t.Fatal("queued request left unanswered at Stop")
	}
	if got := s.tenants["q"].pending.Load(); got != 0 {
		t.Fatalf("pending counter after Stop: %d", got)
	}
}

// TestReadYourWrites: after every 200 to an open or a close, the state
// served over HTTP already reflects that request — the connection
// count, the allocator fingerprint and the journal sequence. Reads are
// answered by the service loop after the reply's tick has ended. A
// snapshot after every mutating tick keeps the service busy between its
// replies and the end of the tick, so a read answered before the tick
// ended would still show the previous tick.
func TestReadYourWrites(t *testing.T) {
	dir := t.TempDir()
	_, srv := testService(t, 4, 4, Config{
		JournalPath:   filepath.Join(dir, "journal.ndjson"),
		SnapshotPath:  filepath.Join(dir, "snapshot.json"),
		SnapshotEvery: 1,
	})
	type fingerprint struct {
		Fingerprint string `json:"fingerprint"`
		Seq         uint64 `json:"seq"`
	}
	get := func(path string, out any) {
		t.Helper()
		if err := getJSON(http.DefaultClient, srv.URL+path, out); err != nil {
			t.Fatal(err)
		}
	}
	var empty fingerprint
	get("/v1/fingerprint", &empty)
	check := func(op string, i int, conns int, seq uint64, wantEmpty bool) {
		t.Helper()
		var list struct {
			Count int `json:"count"`
		}
		get("/v1/connections", &list)
		var fp fingerprint
		get("/v1/fingerprint", &fp)
		if list.Count != conns || fp.Seq != seq || (fp.Fingerprint == empty.Fingerprint) != wantEmpty {
			t.Fatalf("%s %d: read model shows %d connections, seq %d, fingerprint %s (empty %s); want %d, %d, empty=%v",
				op, i, list.Count, fp.Seq, fp.Fingerprint, empty.Fingerprint, conns, seq, wantEmpty)
		}
	}
	for i := 0; i < 8; i++ {
		status, body := post(t, srv.URL, "/v1/connections", openReq("alpha", 4, 11, 2))
		if status != http.StatusOK {
			t.Fatalf("open %d: status %d body %v", i, status, body)
		}
		check("open", i, 1, empty.Seq+uint64(2*i+1), false)
		if status, body := del(t, srv.URL, uint64(body["handle"].(float64)), "alpha"); status != http.StatusOK {
			t.Fatalf("close %d: status %d body %v", i, status, body)
		}
		check("close", i, 0, empty.Seq+uint64(2*i+2), true)
	}
}
