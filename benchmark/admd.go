package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"daelite"
	"daelite/internal/admission"
	"daelite/internal/core"
)

// Frozen shape of admd_mixed: a 4x4 mesh, two tenants each confined to
// a two-column band (their reservations never share a link, an NI or a
// channel, so every answer is independent of how the two clients
// interleave), one closed-loop client per tenant.
const (
	admSide = 4
	// admLiveCap bounds a client's live set: an open drawn at the cap
	// is served as close-oldest. With it 5-15 % of opens find no fit.
	admLiveCap   = 9
	admWarmDraws = 150
)

var admTenants = []struct {
	name  string
	class admission.Class
	x0    int
}{
	{"gold", admission.Gold, 0},
	{"bronze", admission.Bronze, 2},
}

// admTransport is how requests reach the admission logic.
type admTransport int

const (
	viaHTTP    admTransport = iota // real sockets on 127.0.0.1
	viaHandler                     // Handler().ServeHTTP, no sockets
	viaCore                        // no service: the facade calls it ends in
)

// admOptions select one variant of the admission stack. The workload is
// {viaHTTP, journal on, both tenants}. The ladder serves one tenant's
// stream four ways with a single client: two closed-loop clients phase-
// lock against the service's ticks, which makes a median latency
// bimodal; one client gives each layer's cost clean.
type admOptions struct {
	transport admTransport
	journal   bool
	clients   int // how many of admTenants drive requests
}

// admBackend answers one tenant's requests.
type admBackend interface {
	// open returns the granted handle, the slots charged and the
	// simulated set-up cycles; nofit reports the correct answer "no
	// capacity right now".
	open(d admDraw) (handle uint64, slots int, setupCycles uint64, nofit bool, err error)
	whatIf(d admDraw) error
	close(handle uint64) error
}

// wireBackend speaks the service's JSON API through do.
type wireBackend struct {
	tenant string
	buf    []byte
	do     func(method, path string, body []byte) (int, []byte, error)
}

// openBody renders the JSON body of an open or what-if for draw d.
func (w *wireBackend) openBody(d admDraw) []byte {
	coord := func(b []byte, c [2]uint8) []byte {
		b = append(b, '"')
		b = strconv.AppendUint(b, uint64(c[0]), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(c[1]), 10)
		return append(b, '"')
	}
	b := append(w.buf[:0], `{"tenant":"`...)
	b = append(b, w.tenant...)
	b = append(b, `","src":`...)
	b = coord(b, d.Src)
	if d.NDst == 1 {
		b = append(b, `,"dst":`...)
		b = coord(b, d.Dsts[0])
	} else {
		b = append(b, `,"dsts":[`...)
		for j, c := range d.Dsts[:d.NDst] {
			if j > 0 {
				b = append(b, ',')
			}
			b = coord(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"slots_fwd":`...)
	b = strconv.AppendUint(b, uint64(d.Slots), 10)
	w.buf = append(b, '}')
	return w.buf
}

func (w *wireBackend) open(d admDraw) (uint64, int, uint64, bool, error) {
	status, reply, err := w.do("POST", "/v1/connections", w.openBody(d))
	switch {
	case err != nil:
		return 0, 0, 0, false, err
	case status == http.StatusConflict:
		return 0, 0, 0, true, nil
	case status != http.StatusOK:
		return 0, 0, 0, false, fmt.Errorf("open: status %d body %s", status, reply)
	}
	var rep struct {
		Handle      uint64 `json:"handle"`
		Slots       int    `json:"slots"`
		SetupCycles uint64 `json:"setup_cycles"`
	}
	if err := json.Unmarshal(reply, &rep); err != nil {
		return 0, 0, 0, false, fmt.Errorf("open reply %s: %w", reply, err)
	}
	return rep.Handle, rep.Slots, rep.SetupCycles, false, nil
}

func (w *wireBackend) whatIf(d admDraw) error {
	status, reply, err := w.do("POST", "/v1/whatif", w.openBody(d))
	var rep struct {
		Fits *bool `json:"fits"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(reply, &rep) != nil || rep.Fits == nil {
		return fmt.Errorf("what-if: status %d err %v body %s", status, err, reply)
	}
	return nil
}

func (w *wireBackend) close(h uint64) error {
	status, reply, err := w.do("DELETE", "/v1/connections/"+strconv.FormatUint(h, 10)+"?tenant="+w.tenant, nil)
	var rep struct {
		Closed bool `json:"closed"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(reply, &rep) != nil || !rep.Closed {
		return fmt.Errorf("close %d: status %d err %v body %s", h, status, err, reply)
	}
	return nil
}

// coreBackend is the bottom rung of the admission ladder: the same
// stream served by the facade calls a request ends in, with no queue,
// DRR, journal, JSON or sockets in between. Both clients share the
// platform under a lock, as they share the service loop above it.
type coreBackend struct {
	mu   *sync.Mutex
	p    *daelite.Platform
	live map[uint64]*daelite.Connection
	next *uint64
}

func (b *coreBackend) spec(d admDraw) daelite.ConnectionSpec {
	m := b.p.Mesh
	s := daelite.ConnectionSpec{Src: m.NI(int(d.Src[0]), int(d.Src[1]), 0), SlotsFwd: int(d.Slots)}
	if d.NDst == 1 {
		s.Dst = m.NI(int(d.Dsts[0][0]), int(d.Dsts[0][1]), 0)
		return s
	}
	for _, c := range d.Dsts[:d.NDst] {
		s.Dsts = append(s.Dsts, m.NI(int(c[0]), int(c[1]), 0))
	}
	return s
}

func (b *coreBackend) open(d admDraw) (uint64, int, uint64, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	spec := b.spec(d)
	c, err := b.p.Open(spec)
	if err != nil {
		return 0, 0, 0, noCapacity(err), err
	}
	if err := b.p.AwaitOpen(c, churnBudget); err != nil {
		return 0, 0, 0, false, err
	}
	*b.next++
	b.live[*b.next] = c
	return *b.next, admission.SlotCost(spec), c.SetupCycles(), false, nil
}

func (b *coreBackend) whatIf(d admDraw) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, item, err := core.AllocItem(b.spec(d))
	if err != nil {
		return err
	}
	_, _ = b.p.Alloc.DryRun(item.Reqs) // fits or not, both are answers
	return nil
}

func (b *coreBackend) close(h uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.live[h]
	delete(b.live, h)
	if err := b.p.Close(c); err != nil {
		return err
	}
	_, err := b.p.CompleteConfig(churnBudget)
	return err
}

// admClient is one tenant's closed-loop resource manager and its shadow
// of what the service must hold for it.
type admClient struct {
	tenant  string
	draws   []admDraw
	pos     int
	backend admBackend

	live []uint64 // handles, oldest first

	opens, accepted, nofit uint64
	setupCycles            uint64
	faults                 uint64
	firstFault             string
	lat                    []time.Duration
}

func (c *admClient) fault(format string, args ...any) {
	c.faults++
	if c.firstFault == "" {
		c.firstFault = c.tenant + ": " + fmt.Sprintf(format, args...)
	}
}

// request serves the next draw and records its latency.
func (c *admClient) request(tr *tracer, n uint64) {
	d := c.draws[c.pos]
	c.pos++
	kind := d.Kind
	if kind == admClose && len(c.live) == 0 {
		kind = admUnicast
	}
	if (kind == admUnicast || kind == admMulticast) && len(c.live) >= admLiveCap {
		kind = admClose
	}
	id := tr.begin("op.request", -1, n)
	t0 := time.Now()
	switch kind {
	case admWhatIf:
		if err := c.backend.whatIf(d); err != nil {
			c.fault("%v", err)
		}
	case admClose:
		if err := c.backend.close(c.live[0]); err != nil {
			c.fault("%v", err)
		}
		c.live = c.live[1:]
	default:
		c.opens++
		// Forward slots plus the one reverse slot credits ride on for
		// unicast; the tree's injection slots once for multicast.
		cost := int(d.Slots) + 1
		if d.NDst > 1 {
			cost = int(d.Slots)
		}
		h, slots, setup, nofit, err := c.backend.open(d)
		switch {
		case nofit:
			c.nofit++ // a correct answer: no capacity right now
		case err != nil:
			c.fault("%v", err)
		case h == 0 || slots != cost || setup == 0:
			c.fault("open reply inconsistent with the request: handle %d, %d slots (cost %d), %d set-up cycles", h, slots, cost, setup)
		default:
			for _, l := range c.live {
				if l == h {
					c.fault("handle %d granted twice", h)
				}
			}
			c.accepted++
			c.setupCycles += setup
			c.live = append(c.live, h)
		}
	}
	c.lat = append(c.lat, time.Since(t0))
	tr.end(id)
}

// admInst is one running service (or, viaCore, one bare platform) with
// its clients.
type admInst struct {
	dir     string
	svc     *admission.Service
	reg     *daelite.TelemetryRegistry
	core    *daelite.Platform // viaCore only
	srv     *http.Server
	served  chan struct{}
	do      func(method, path string, body []byte) (int, []byte, error)
	clients []*admClient
	started time.Time
}

func newAdmPlatform() (*daelite.Platform, error) {
	return daelite.NewMeshPlatform(daelite.MeshSpec{Width: admSide, Height: admSide, NIsPerRouter: 1}, daelite.DefaultParams(), 0, 0)
}

func newAdmService(dir string, journal bool) (*admission.Service, *daelite.TelemetryRegistry, error) {
	p, err := newAdmPlatform()
	if err != nil {
		return nil, nil, err
	}
	cfg := admission.Config{}
	for _, t := range admTenants {
		cfg.Tenants = append(cfg.Tenants, admission.TenantConfig{Name: t.name, Class: t.class})
	}
	if journal {
		cfg.JournalPath = filepath.Join(dir, "journal.ndjson")
		cfg.SnapshotPath = filepath.Join(dir, "snapshot.json")
	}
	reg := daelite.NewTelemetryRegistry()
	svc, err := admission.NewService(p, reg, cfg)
	return svc, reg, err
}

// buildAdm starts the service (and its HTTP server), generates both
// request streams and runs the warm-up draws that fill the live sets.
func buildAdm(cfg runConfig, opt admOptions, streams [][]admDraw) (*admInst, error) {
	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.TmpDir, "admd-")
	if err != nil {
		return nil, err
	}
	in := &admInst{dir: dir, started: time.Now()}
	switch opt.transport {
	case viaCore:
		if in.core, err = newAdmPlatform(); err != nil {
			return nil, err
		}
	default:
		if in.svc, in.reg, err = newAdmService(dir, opt.journal); err != nil {
			return nil, err
		}
		in.svc.Start()
	}
	var base string
	switch opt.transport {
	case viaHTTP:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		base = "http://" + ln.Addr().String()
		in.srv = &http.Server{Handler: in.svc.Handler()}
		in.served = make(chan struct{})
		go func() {
			defer close(in.served)
			_ = in.srv.Serve(ln) // returns ErrServerClosed on Shutdown
		}()
	case viaHandler:
		h := in.svc.Handler()
		in.do = func(method, path string, body []byte) (int, []byte, error) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return w.Code, w.Body.Bytes(), nil
		}
	}
	var mu sync.Mutex
	var next uint64
	for i, t := range admTenants[:opt.clients] {
		c := &admClient{tenant: t.name, draws: streams[i]}
		switch opt.transport {
		case viaCore:
			c.backend = &coreBackend{mu: &mu, p: in.core, live: map[uint64]*daelite.Connection{}, next: &next}
		case viaHTTP:
			// One transport per client: exactly one kept-alive
			// connection each, two in all.
			in.do = httpDo(&http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, base)
			c.backend = &wireBackend{tenant: t.name, do: in.do}
		default:
			c.backend = &wireBackend{tenant: t.name, do: in.do}
		}
		in.clients = append(in.clients, c)
	}
	in.runClients(nil, admWarmDraws, 0)
	for _, c := range in.clients {
		c.opens, c.accepted, c.nofit, c.setupCycles = 0, 0, 0, 0
		c.lat = c.lat[:0]
	}
	return in, nil
}

// httpDo sends one request over hc and reads the whole reply, so the
// connection goes back to the pool.
func httpDo(hc *http.Client, base string) func(method, path string, body []byte) (int, []byte, error) {
	return func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
}

// runClients lets every client serve n draws concurrently and waits for
// all of them: one repetition.
func (in *admInst) runClients(tr *tracer, n int, opBase uint64) {
	// Spans are recorded by the first client only: the tracer is not
	// safe for concurrent use, and one client's requests are a fair
	// sample of both.
	var wg sync.WaitGroup
	for i, c := range in.clients {
		wg.Add(1)
		ctr := tr
		if i > 0 {
			ctr = nil
		}
		go func(c *admClient, ctr *tracer) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				c.request(ctr, opBase+uint64(k))
			}
		}(c, ctr)
	}
	wg.Wait()
}

// stop shuts the server and the service down and returns the service
// platform's final cycle count.
func (in *admInst) stop() (uint64, error) {
	if in.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := in.srv.Shutdown(ctx)
		cancel()
		<-in.served
		if err != nil {
			return 0, fmt.Errorf("admd_mixed: http shutdown: %w", err)
		}
	}
	if in.core != nil {
		return in.core.Cycle(), nil
	}
	if err := in.svc.Stop(); err != nil {
		return 0, fmt.Errorf("admd_mixed: service stop: %w", err)
	}
	return in.svc.Platform().Cycle(), nil
}

func (in *admInst) release() {
	_, _ = in.stop()
	_ = os.RemoveAll(in.dir)
}

// admOutcome is what one admission run produced beyond the generic
// measurements; the ladder reads the service-side counters from it.
type admOutcome struct {
	m            *measured
	requests     uint64
	cycles       uint64
	journalBytes int64
	batchMean    float64
	refused503   uint64
	quota        uint64
	nofit        uint64
	snapshotMS   float64
	restoreMS    float64
}

// runAdm drives one variant of the admission stack: set-up, timed
// repetitions, then the consistency checks (shadow state against the
// service's own read model, restart from journal and snapshot against
// the live allocator fingerprint).
func runAdm(cfg runConfig, tr *tracer, opt admOptions, setups, perClient int, boxed bool) (*admOutcome, error) {
	m := &measured{OpName: "one admission request, sent to reply",
		Counts: compCounts{Routers: admSide * admSide, NIs: admSide * admSide}}
	// Both request streams exist before any timer starts.
	reps := 1
	if boxed {
		reps = maxReps + 1
	}
	var streams [][]admDraw
	for _, t := range admTenants[:opt.clients] {
		streams = append(streams, admStream(cfg.Seed, t.x0, 2, admSide, admWarmDraws+reps*perClient))
	}
	in, err := timeSetups(m, setups, func() (*admInst, error) { return buildAdm(cfg, opt, streams) }, (*admInst).release)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(in.dir)
	out := &admOutcome{m: m}

	rep := func(i int) (uint64, uint64) {
		in.runClients(tr, perClient, uint64(i*perClient))
		return 0, uint64(perClient * len(in.clients))
	}
	atRef := func() {
		var opens, accepted, setup uint64
		var h uint64
		for _, c := range in.clients {
			opens += c.opens
			accepted += c.accepted
			setup += c.setupCycles
			h = fnv(h, hashAdm(c.draws[:c.pos]))
		}
		m.Sim.OpensAttempted, m.Sim.OpensAccepted = opens, accepted
		m.Sim.SetupCyclesMean = float64(setup) / float64(max(accepted, 1))
		m.Sim.StreamHash = fmt.Sprintf("%016x", h)
		if in.svc != nil {
			// The occupancy both bands have reached: exact, because
			// neither tenant's answers depend on the other's.
			var rep struct {
				Fingerprint string `json:"fingerprint"`
			}
			if status, body, err := in.do("GET", "/v1/fingerprint", nil); err != nil || status != http.StatusOK || json.Unmarshal(body, &rep) != nil {
				m.fail(1, "fingerprint: status %d err %v", status, err)
			}
			m.Sim.AllocFP = rep.Fingerprint
		}
	}
	if boxed {
		repLoop(cfg, tr, m, rep, atRef)
	} else {
		// A ladder rung: one fixed repetition, no time box.
		t0 := time.Now()
		_, ops := rep(0)
		m.RepWall, m.RepOps = []float64{time.Since(t0).Seconds()}, []float64{float64(ops)}
		atRef()
	}

	// Shadow state against the service's read model, over the wire the
	// clients used.
	var liveWant int
	for _, c := range in.clients {
		liveWant += len(c.live)
		m.OpLat = append(m.OpLat, c.lat...)
		out.requests += uint64(len(c.lat))
		out.nofit += c.nofit
		m.fail(c.faults, "%d requests failed, first: %s", c.faults, c.firstFault)
	}
	m.Attempted = out.requests
	if in.svc != nil {
		status, body, err := in.do("GET", "/v1/connections", nil)
		var list struct {
			Count int `json:"count"`
		}
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &list) != nil || list.Count != liveWant {
			m.fail(1, "service lists %d live connections (status %d, err %v), the clients hold %d", list.Count, status, err, liveWant)
		}
	}
	if opt.journal {
		t0 := time.Now()
		if err := in.svc.TakeSnapshot(); err != nil {
			m.fail(1, "snapshot: %v", err)
		}
		out.snapshotMS = time.Since(t0).Seconds() * 1e3
	}
	m.TotalWall = time.Since(in.started).Seconds()
	m.TotalCycles, err = in.stop()
	if err != nil {
		return nil, err
	}
	out.cycles = m.TotalCycles
	if in.svc == nil {
		return out, nil
	}
	fp, _, _ := in.svc.Fingerprint()

	for _, t := range admTenants {
		count := func(outcome string) uint64 {
			return in.reg.Counter("admission_requests_total", daelite.TelemetryL("tenant", t.name), daelite.TelemetryL("outcome", outcome)).Value()
		}
		out.refused503 += count("queue_full")
		out.quota += count("quota")
	}
	if h := in.reg.Histogram("admission_batch_open_size", nil); h.Count() > 0 {
		out.batchMean = float64(h.Sum()) / float64(h.Count())
	}
	m.fail(out.refused503, "%d requests refused with 503", out.refused503)

	if opt.journal {
		if st, err := os.Stat(filepath.Join(in.dir, "journal.ndjson")); err == nil {
			out.journalBytes = st.Size()
		}
		// Restart: a fresh service over the same files must arrive at
		// the allocator occupancy the stopped one held.
		t0 := time.Now()
		svc2, _, err := newAdmService(in.dir, true)
		if err != nil {
			return nil, err
		}
		rep, err := svc2.Restore()
		out.restoreMS = time.Since(t0).Seconds() * 1e3
		if err != nil {
			m.fail(1, "restore: %v", err)
		} else if rep.Fingerprint != fp {
			m.fail(1, "restored allocator fingerprint %016x, live service had %016x", rep.Fingerprint, fp)
		}
		if err := svc2.Stop(); err != nil {
			m.fail(1, "stop restored service: %v", err)
		}
	}
	return out, nil
}
