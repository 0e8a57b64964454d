// Package admission is the control plane that turns the daelite library
// into a served system: a long-running, multi-tenant set-up/teardown
// service owning a virtual NoC platform. Clients ask for guaranteed-
// service connections over HTTP (JSON); the service answers by admitting
// them in order through the allocator (core.OpenBatch) and driving the
// real configuration tree, so every accepted request ends as
// programmed slot tables on the cycle-accurate platform — the paper's
// tens-of-microseconds set-up served as a request/response workload.
//
// Tenancy and fairness. Every request names a tenant. Tenants carry a
// QoS class (gold/silver/bronze) and slot/connection quotas; queued
// demand is drafted into admission batches by deficit round-robin over
// the class weights, so under overload bandwidth-class shares hold and
// no tenant starves. Backpressure is explicit: per-tenant queue bounds,
// 503 plus Retry-After past them.
//
// Determinism and durability. The service advances in ticks. Each tick
// processes teardowns, answers what-if queries (read-only DryRun — no
// epoch bump, no journal growth), drafts opens deterministically, admits
// them in draft order as one core.OpenBatch, runs the configuration to
// settlement, appends one record to the request journal and only then
// answers the tick's mutations; the periodic snapshot comes last. Reads (GET /v1/connections, /v1/fingerprint,
// /v1/tenants) queue on the loop like snapshots and are answered between
// ticks, so a client reading right after its reply sees its own change.
// A snapshot captures the exact committed reservations plus tenant
// accounting; restart = adopt the snapshot verbatim + replay the journal
// suffix, reproducing the pre-restart allocator occupancy exactly —
// verified by comparing alloc.Fingerprint values.
package admission

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"daelite/internal/core"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
)

// Config parameterizes a Service.
type Config struct {
	// Tenants declares the tenant set; at least one is required.
	Tenants []TenantConfig
	// MaxBatch caps how many open/what-if requests one tick drafts
	// (default 32; teardowns are always served). Bounding the batch also
	// bounds the configuration words staged per tick well below the
	// config module's queue depth.
	MaxBatch int
	// GatherWindow is how long a tick waits for more arrivals after the
	// first before forming its batch. Zero processes immediately —
	// lowest latency; a few hundred microseconds amortizes batches
	// under sustained load.
	GatherWindow time.Duration
	// DefaultQueueDepth bounds each tenant's pending requests when its
	// TenantConfig does not say otherwise (default 64).
	DefaultQueueDepth int
	// DRRQuantum is the deficit round-robin quantum in slot-cost units
	// per weight unit per pass (default 4).
	DRRQuantum int
	// SettleBudget bounds the cycles one tick may run the platform to
	// drain configuration (default 1<<20).
	SettleBudget uint64
	// JournalPath appends one NDJSON record per mutating tick when
	// non-empty.
	JournalPath string
	// SnapshotPath is where TakeSnapshot and the shutdown path write the
	// durable state when non-empty.
	SnapshotPath string
	// SnapshotEvery writes an automatic snapshot every N mutating ticks
	// (0 = only on demand and at shutdown).
	SnapshotEvery uint64
	// RetryAfter is the backpressure hint attached to 503 responses
	// (default 50ms, rounded up to whole seconds on the HTTP header).
	RetryAfter time.Duration
	// TraceAll traces every request end-to-end when the platform has a
	// causal tracer attached, as if each carried Trace: true. Individual
	// requests can still opt in selectively via OpenRequest.Trace.
	TraceAll bool
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.DefaultQueueDepth <= 0 {
		c.DefaultQueueDepth = 64
	}
	if c.DRRQuantum <= 0 {
		c.DRRQuantum = 4
	}
	if c.SettleBudget == 0 {
		c.SettleBudget = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	return c
}

// opKind discriminates queued operations.
type opKind int

const (
	opOpen opKind = iota
	opClose
	opWhatIf
	opSnapshot
	opRead
)

func (k opKind) String() string {
	switch k {
	case opOpen:
		return "open"
	case opClose:
		return "teardown"
	case opWhatIf:
		return "whatif"
	case opRead:
		return "read"
	default:
		return "snapshot"
	}
}

// reply is one request's answer: an HTTP-ish status code plus a JSON
// body.
type reply struct {
	status int
	body   map[string]any
}

// pending is one queued request with its reply channel.
type pending struct {
	op     opKind
	t      *tenant
	spec   core.ConnectionSpec // normalized; opOpen/opWhatIf
	cost   int                 // slot cost of spec
	handle uint64              // opClose
	read   func()              // opRead: runs on the loop between ticks
	enq    time.Time
	reply  chan reply

	// Causal tracing (loop-owned): wantTrace is set at submit; the loop
	// starts the request root and its queue-wait child at enqueue and
	// stamps the grant/settle milestones in platform cycles.
	wantTrace bool
	trace     tracing.SpanRef
	queueSpan tracing.SpanRef
	enqCycle  uint64
	grantCyc  uint64
}

// liveConn is the service-side record of one open connection.
type liveConn struct {
	handle     uint64
	tenant     string
	spec       core.ConnectionSpec
	cost       int
	conn       *core.Connection
	openedTick uint64
	setup      uint64 // settled set-up duration in cycles
}

// ConnInfo describes one live connection (GET /v1/connections).
type ConnInfo struct {
	Handle      uint64   `json:"handle"`
	Tenant      string   `json:"tenant"`
	Spec        WireSpec `json:"spec"`
	SlotCost    int      `json:"slot_cost"`
	OpenedTick  uint64   `json:"opened_tick"`
	SetupCycles uint64   `json:"setup_cycles"`
}

// TenantInfo describes one tenant's usage and queue (GET /v1/tenants).
type TenantInfo struct {
	Name      string `json:"name"`
	Class     Class  `json:"class"`
	Weight    int    `json:"weight"`
	MaxSlots  int    `json:"max_slots"`
	MaxConns  int    `json:"max_conns"`
	SlotsUsed int    `json:"slots_used"`
	Conns     int    `json:"conns"`
	Queued    int64  `json:"queued"`
}

// Service is the admission control plane over one platform. Create with
// NewService, optionally Restore, then Start; the platform must not be
// touched by anyone else afterwards (the service loop owns it). While
// the loop runs, the readers (Fingerprint, Tick, Conns, Tenants) queue on
// the control channel and the loop answers them between ticks; before
// Start and after the loop has exited they read its state directly.
type Service struct {
	p   *core.Platform
	reg *telemetry.Registry
	cfg Config

	tenants map[string]*tenant
	order   []string

	arrivals chan *pending
	control  chan *pending
	quit     chan struct{}
	done     chan struct{}
	closing  atomic.Bool
	started  atomic.Bool
	stopOnce sync.Once
	stopErr  error
	// submitMu makes submit's closing-check-then-send atomic against
	// Stop: Stop sets closing under the write lock, so once it holds the
	// lock every in-flight send has landed and every later submit is
	// refused — the loop's final drain observes all arrivals.
	submitMu sync.RWMutex

	journal *journalWriter

	// Loop-owned state.
	conns       map[uint64]*liveConn
	nextHandle  uint64
	tick, seq   uint64
	queuedCount int
	snapDirty   uint64 // mutating ticks since the last snapshot

	// Service-level metrics.
	ticksTotal, journalRecords, snapshots *telemetry.Counter
	batchOpenSize                         *telemetry.Histogram
	setupCycles                           *telemetry.Histogram
	tickGauge, liveConnsGauge             *telemetry.Gauge
}

// NewService builds a control plane over p publishing into reg. The
// platform should be freshly built (or restored through Restore); reg
// may be the platform's attached telemetry registry or a dedicated one.
func NewService(p *core.Platform, reg *telemetry.Registry, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	tenants, order, err := validateTenants(cfg.Tenants, reg)
	if err != nil {
		return nil, err
	}
	s := &Service{
		p:        p,
		reg:      reg,
		cfg:      cfg,
		tenants:  tenants,
		order:    order,
		arrivals: make(chan *pending, 4096),
		control:  make(chan *pending, 8),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		conns:    make(map[uint64]*liveConn),

		ticksTotal:     reg.Counter("admission_ticks_total"),
		journalRecords: reg.Counter("admission_journal_records_total"),
		snapshots:      reg.Counter("admission_snapshots_total"),
		batchOpenSize:  reg.Histogram("admission_batch_open_size", []uint64{1, 2, 4, 8, 16, 32, 64, 128}),
		setupCycles:    reg.Histogram("admission_setup_cycles", nil),
		tickGauge:      reg.Gauge("admission_tick"),
		liveConnsGauge: reg.Gauge("admission_live_conns"),
	}
	if cfg.JournalPath != "" {
		w, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = w
	}
	s.setGauges()
	return s, nil
}

// Registry returns the registry the service publishes into.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Platform returns the owned platform. Do not touch it while the
// service is running; it is exposed for checker attachment and tests
// before Start / after Stop.
func (s *Service) Platform() *core.Platform { return s.p }

// Start launches the service loop. Call at most once.
func (s *Service) Start() {
	if s.started.Swap(true) {
		return
	}
	go s.loop()
}

// Stop drains: new requests are refused, queued work is processed to
// completion, a final snapshot is written when SnapshotPath is set, and
// the journal is closed. Idempotent; later calls return the first
// result.
func (s *Service) Stop() error {
	s.stopOnce.Do(func() {
		s.submitMu.Lock()
		s.closing.Store(true)
		s.submitMu.Unlock()
		if !s.started.Load() {
			// Never started: answer anything queued, close durable
			// resources.
			s.failStragglers()
			if s.journal != nil {
				s.stopErr = s.journal.Close()
			}
			return
		}
		close(s.quit)
		<-s.done
		s.failStragglers()
	})
	return s.stopErr
}

// failStragglers answers every request still sitting in the arrival
// queue once no loop will ever drain it (the loop has exited, or the
// service never started) so no handler is left blocked on its reply.
func (s *Service) failStragglers() {
	for {
		select {
		case pd := <-s.arrivals:
			s.answer(pd, reply{status: 503, body: map[string]any{"error": errShuttingDown.Error()}})
		default:
			return
		}
	}
}

// Fingerprint returns the allocator occupancy fingerprint, epoch and
// journal sequence at a tick boundary: a call made after a mutation's
// reply sees that mutation. While the service runs the call waits for
// the loop to finish its current tick; it never fails for load.
func (s *Service) Fingerprint() (fp, epoch, seq uint64) {
	s.atBoundary(func() { fp, epoch, seq = s.fingerprint() })
	return fp, epoch, seq
}

// Tick returns the last completed tick number, read at a tick boundary
// like Fingerprint.
func (s *Service) Tick() (tick uint64) {
	s.atBoundary(func() { tick = s.tick })
	return tick
}

// Conns returns the live connections sorted by handle, read at a tick
// boundary like Fingerprint. The caller owns the returned slice.
func (s *Service) Conns() (conns []ConnInfo) {
	s.atBoundary(func() { conns = s.connInfos() })
	return conns
}

// Tenants returns every tenant's usage and queue length in deterministic
// name order, read at a tick boundary like Fingerprint. The caller owns
// the returned slice.
func (s *Service) Tenants() (tenants []TenantInfo) {
	s.atBoundary(func() { tenants = s.tenantInfos() })
	return tenants
}

// atBoundary runs read against the loop-owned state where no tick is in
// progress. While the loop runs, read is queued behind the requests
// already submitted and the loop runs it between ticks, so it sees every
// mutation answered before the call. Before Start, and once the loop has
// exited, read runs here. The loop must never call atBoundary itself: it
// would wait on its own control queue.
func (s *Service) atBoundary(read func()) {
	if s.started.Load() {
		if _, ok := s.toLoop(&pending{op: opRead, read: read, reply: make(chan reply, 1)}); ok {
			return
		}
	}
	read()
}

// toLoop hands a control request (a read or a snapshot) to the loop and
// waits for its reply. It blocks while the control queue is full rather
// than refusing; ok is false when the loop exited without answering, and
// the state it owned is then final and safe to read.
func (s *Service) toLoop(pd *pending) (r reply, ok bool) {
	select {
	case s.control <- pd:
	case <-s.done:
		return reply{}, false
	}
	select {
	case r = <-pd.reply:
		return r, true
	case <-s.done:
		// The loop may have answered just before it exited.
		select {
		case r = <-pd.reply:
			return r, true
		default:
			return reply{}, false
		}
	}
}

// fingerprint, connInfos and tenantInfos read the loop-owned state; only
// the loop, or a caller that knows the loop is not running, calls them.
func (s *Service) fingerprint() (fp, epoch, seq uint64) {
	return s.p.Alloc.Fingerprint(), s.p.Alloc.Epoch(), s.seq
}

func (s *Service) connInfos() []ConnInfo {
	conns := make([]ConnInfo, 0, len(s.conns))
	for _, lc := range s.conns {
		conns = append(conns, ConnInfo{
			Handle:      lc.handle,
			Tenant:      lc.tenant,
			Spec:        toWireSpec(lc.spec),
			SlotCost:    lc.cost,
			OpenedTick:  lc.openedTick,
			SetupCycles: lc.setup,
		})
	}
	sort.Slice(conns, func(i, j int) bool { return conns[i].Handle < conns[j].Handle })
	return conns
}

func (s *Service) tenantInfos() []TenantInfo {
	tenants := make([]TenantInfo, 0, len(s.order))
	for _, name := range s.order {
		t := s.tenants[name]
		tenants = append(tenants, TenantInfo{
			Name:      t.cfg.Name,
			Class:     t.cfg.Class,
			Weight:    t.weight,
			MaxSlots:  t.cfg.MaxSlots,
			MaxConns:  t.cfg.MaxConns,
			SlotsUsed: t.slotsUsed,
			Conns:     t.conns,
			Queued:    t.pending.Load(),
		})
	}
	return tenants
}

// queueBound returns the tenant's pending-request bound.
func (s *Service) queueBound(t *tenant) int64 {
	if t.cfg.QueueDepth > 0 {
		return int64(t.cfg.QueueDepth)
	}
	return int64(s.cfg.DefaultQueueDepth)
}

// errQueueFull and errShuttingDown are the submit-side refusals; the
// HTTP layer maps both to 503 + Retry-After.
var (
	errQueueFull    = errors.New("admission: tenant queue full")
	errShuttingDown = errors.New("admission: shutting down")
)

// submit places a request into the arrival queue, applying backpressure.
// On success the reply channel will receive exactly one answer.
func (s *Service) submit(pd *pending) error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closing.Load() {
		return errShuttingDown
	}
	if pd.t.pending.Add(1) > s.queueBound(pd.t) {
		pd.t.pending.Add(-1)
		pd.t.queueFull.Inc()
		return errQueueFull
	}
	select {
	case s.arrivals <- pd:
		return nil
	default:
		pd.t.pending.Add(-1)
		pd.t.queueFull.Inc()
		return errQueueFull
	}
}

// --- The service loop ---

func (s *Service) loop() {
	defer close(s.done)
	for {
		if s.queuedCount == 0 {
			select {
			case pd := <-s.arrivals:
				s.enqueue(pd)
			case pd := <-s.control:
				s.handleControl(pd)
				continue
			case <-s.quit:
				s.drainAndShutdown()
				return
			}
		}
		s.drainControl()
		s.gather()
		s.runTick()
		select {
		case <-s.quit:
			s.drainAndShutdown()
			return
		default:
		}
	}
}

// handleControl serves out-of-band operations (reads and snapshot
// requests) at tick boundaries, so they observe a quiescent platform.
func (s *Service) handleControl(pd *pending) {
	if pd.op == opRead {
		pd.read()
		pd.reply <- reply{status: 200}
		return
	}
	if err := s.takeSnapshot(); err != nil {
		pd.reply <- reply{status: 500, body: map[string]any{"error": err.Error()}}
		return
	}
	pd.reply <- reply{status: 200, body: map[string]any{"snapshot": s.cfg.SnapshotPath, "seq": s.seq}}
}

// drainControl serves the control requests queued when it starts and no
// more, so readers that re-queue as soon as they are answered cannot
// hold off the next tick.
func (s *Service) drainControl() {
	for n := len(s.control); n > 0; n-- {
		s.handleControl(<-s.control)
	}
}

// enqueue appends one arrival to its tenant FIFO. Traced requests get
// their root span and queue-wait child here — on the loop goroutine, in
// arrival order, stamped with the platform cycle — so trace IDs and
// span timings never depend on HTTP handler scheduling.
func (s *Service) enqueue(pd *pending) {
	if tr := s.p.Tracer(); tr != nil && (pd.wantTrace || s.cfg.TraceAll) {
		cycle := s.p.Cycle()
		pd.enqCycle = cycle
		pd.trace = tr.StartRoot(fmt.Sprintf("%s %s", pd.op, pd.t.cfg.Name), "request", cycle)
		tr.SetAttr(pd.trace, "tenant", pd.t.cfg.Name)
		tr.SetAttr(pd.trace, "op", pd.op.String())
		pd.queueSpan = tr.StartChild(pd.trace, "queue", "queue", cycle)
	}
	pd.t.fifo = append(pd.t.fifo, pd)
	s.queuedCount++
}

// gather drains the arrival channel into the tenant FIFOs, waiting up to
// GatherWindow for stragglers so sustained load forms real batches.
func (s *Service) gather() {
	for {
		select {
		case pd := <-s.arrivals:
			s.enqueue(pd)
			continue
		default:
		}
		break
	}
	if s.cfg.GatherWindow <= 0 {
		return
	}
	timer := time.NewTimer(s.cfg.GatherWindow)
	defer timer.Stop()
	for s.queuedCount < 2*s.cfg.MaxBatch {
		select {
		case pd := <-s.arrivals:
			s.enqueue(pd)
		case <-timer.C:
			return
		}
	}
}

// drainAndShutdown processes everything still queued, writes the final
// snapshot and closes the journal.
func (s *Service) drainAndShutdown() {
	for {
		select {
		case pd := <-s.arrivals:
			s.enqueue(pd)
			continue
		default:
		}
		if s.queuedCount == 0 {
			break
		}
		s.runTick()
	}
	// Unblock any control callers that raced the shutdown: reads see
	// the final state, snapshot requests are refused (the final snapshot
	// follows).
	for {
		select {
		case pd := <-s.control:
			if pd.op == opRead {
				s.handleControl(pd)
			} else {
				pd.reply <- reply{status: 503, body: map[string]any{"error": errShuttingDown.Error()}}
			}
			continue
		default:
		}
		break
	}
	if s.cfg.SnapshotPath != "" {
		if err := s.takeSnapshot(); err != nil {
			s.reg.Emit(telemetry.Event{Cycle: s.p.Cycle(), Kind: "admission-snapshot-error", Detail: err.Error()})
		}
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.reg.Emit(telemetry.Event{Cycle: s.p.Cycle(), Kind: "admission-journal-error", Detail: err.Error()})
		}
	}
}

// popCloses extracts every queued teardown, preserving per-tenant FIFO
// order and iterating tenants deterministically. Teardowns are always
// served: they only free capacity.
func (s *Service) popCloses() []*pending {
	var closes []*pending
	for _, name := range s.order {
		t := s.tenants[name]
		kept := t.fifo[:0]
		for _, pd := range t.fifo {
			if pd.op == opClose {
				if pd.trace.Valid() {
					pd.grantCyc = s.p.Cycle()
					s.p.Tracer().End(pd.queueSpan, pd.grantCyc)
				}
				closes = append(closes, pd)
				s.queuedCount--
			} else {
				kept = append(kept, pd)
			}
		}
		t.fifo = kept
	}
	return closes
}

// draftCost is a request's charge against the DRR deficit: the slot
// cost for opens, a nominal 1 for read-only what-ifs.
func draftCost(pd *pending) int {
	if pd.op == opWhatIf {
		return 1
	}
	return pd.cost
}

// draft forms this tick's open/what-if batch by deficit round-robin over
// the tenant FIFOs: each pass refills every backlogged tenant's deficit
// by weight x quantum, then serves requests from the FIFO head while the
// deficit covers their slot cost. The deficit is capped at a few quanta
// of burst — but never below the head request's cost, so any admissible
// cost is eventually reachable and the FIFO cannot wedge behind an
// expensive head. Quota violations are rejected at draft time
// (exactly-at-quota is admissible) against committed usage plus the
// tenant's earlier drafts in this same batch.
func (s *Service) draft() (opens, whatifs []*pending) {
	type plan struct{ slots, conns int }
	planned := make(map[*tenant]plan)
	total := 0
	for total < s.cfg.MaxBatch {
		progressed := false
		for _, name := range s.order {
			if total >= s.cfg.MaxBatch {
				break
			}
			t := s.tenants[name]
			if len(t.fifo) == 0 {
				t.deficit = 0
				continue
			}
			t.deficit += t.weight * s.cfg.DRRQuantum
			limit := 4 * t.weight * s.cfg.DRRQuantum
			if head := draftCost(t.fifo[0]); limit < head {
				limit = head
			}
			if t.deficit > limit {
				t.deficit = limit
			}
			for len(t.fifo) > 0 && total < s.cfg.MaxBatch {
				pd := t.fifo[0]
				cost := draftCost(pd)
				if t.deficit < cost {
					break
				}
				t.fifo = t.fifo[1:]
				s.queuedCount--
				t.deficit -= cost
				progressed = true
				if pd.trace.Valid() {
					tr := s.p.Tracer()
					pd.grantCyc = s.p.Cycle()
					tr.End(pd.queueSpan, pd.grantCyc)
					tr.Point(pd.trace, "drr_grant", "draft",
						fmt.Sprintf("cost %d, deficit left %d", cost, t.deficit), pd.grantCyc)
				}
				if pd.op == opOpen {
					pl := planned[t]
					if t.overQuota(t.slotsUsed+pl.slots, t.conns+pl.conns, pd.cost) {
						t.quotaRejected.Inc()
						s.answer(pd, reply{status: 429, body: map[string]any{
							"error": fmt.Sprintf("quota exceeded: %d/%d slots used, request costs %d", t.slotsUsed+pl.slots, t.cfg.MaxSlots, pd.cost),
						}})
						continue
					}
					pl.slots += pd.cost
					pl.conns++
					planned[t] = pl
					opens = append(opens, pd)
				} else {
					whatifs = append(whatifs, pd)
				}
				total++
			}
			if len(t.fifo) == 0 {
				t.deficit = 0
			}
		}
		if !progressed {
			break
		}
	}
	return opens, whatifs
}

// runTick advances the control plane by one tick; see the package
// comment for the phase order.
func (s *Service) runTick() {
	s.tick++
	s.ticksTotal.Inc()

	closes := s.popCloses()
	closedHandles, closeReplies := s.processCloses(closes)

	opens, whatifs := s.draft()
	s.processWhatIfs(whatifs)
	openRecs, openReplies := s.processOpens(opens)

	mutated := len(closedHandles) > 0 || len(openRecs) > 0
	if mutated {
		if _, err := s.p.CompleteConfig(s.cfg.SettleBudget); err != nil {
			s.reg.Emit(telemetry.Event{Cycle: s.p.Cycle(), Kind: "admission-settle-error", Detail: err.Error()})
		}
		s.seq++
		if s.journal != nil {
			rec := journalRecord{Seq: s.seq, Tick: s.tick, Closes: closedHandles, Opens: openRecs}
			if err := s.journal.Append(rec); err != nil {
				s.reg.Emit(telemetry.Event{Cycle: s.p.Cycle(), Kind: "admission-journal-error", Detail: err.Error()})
			} else {
				s.journalRecords.Inc()
			}
		}
		s.snapDirty++
	}

	// The open replies carry the measured set-up span.
	for _, rr := range openReplies {
		if rr.lc != nil {
			rr.lc.setup = rr.lc.conn.SetupCycles()
			s.setupCycles.Observe(rr.lc.setup)
			rr.rep.body["setup_cycles"] = rr.lc.setup
			if rr.pd.trace.Valid() {
				rr.rep.body["stages"] = s.stageBreakdown(rr.pd, rr.lc)
			}
		}
	}

	// Answer mutations only now: teardown and open latencies include the
	// configuration settling on the platform. A read the client sends
	// after its reply queues on the loop and is answered after this tick
	// (read-your-writes).
	s.setGauges()
	for _, rr := range closeReplies {
		s.answer(rr.pd, rr.rep)
	}
	for _, rr := range openReplies {
		s.answer(rr.pd, rr.rep)
	}

	// The snapshot comes after the replies so it adds nothing to their
	// latency.
	if s.cfg.SnapshotEvery > 0 && s.snapDirty >= s.cfg.SnapshotEvery && s.cfg.SnapshotPath != "" {
		if err := s.takeSnapshot(); err != nil {
			s.reg.Emit(telemetry.Event{Cycle: s.p.Cycle(), Kind: "admission-snapshot-error", Detail: err.Error()})
		}
	}
}

// processCloses tears down valid targets and answers invalid ones
// immediately; the successful teardowns' replies are deferred to the
// settle point by processCloses' caller answering via closeReplies, so
// a 200 means the teardown configuration has settled and the latency
// accounts for it, exactly like opens.
func (s *Service) processCloses(closes []*pending) (handles []uint64, closeReplies []openReply) {
	for _, pd := range closes {
		lc, ok := s.conns[pd.handle]
		if !ok {
			s.answer(pd, reply{status: 404, body: map[string]any{"error": fmt.Sprintf("no connection %d", pd.handle)}})
			continue
		}
		if lc.tenant != pd.t.cfg.Name {
			s.answer(pd, reply{status: 403, body: map[string]any{"error": fmt.Sprintf("connection %d belongs to %q", pd.handle, lc.tenant)}})
			continue
		}
		if pd.trace.Valid() {
			// The teardown configuration transaction becomes a child of
			// this request's span.
			s.p.SetTraceParent(pd.trace)
		}
		err := s.p.Close(lc.conn)
		s.p.SetTraceParent(tracing.SpanRef{})
		if err != nil {
			s.answer(pd, reply{status: 500, body: map[string]any{"error": err.Error()}})
			continue
		}
		delete(s.conns, pd.handle)
		t := s.tenants[lc.tenant]
		t.slotsUsed -= lc.cost
		t.conns--
		handles = append(handles, pd.handle)
		pd.t.accepted.Inc()
		closeReplies = append(closeReplies, openReply{pd: pd, rep: reply{status: 200, body: map[string]any{"handle": pd.handle, "closed": true}}})
	}
	return handles, closeReplies
}

// processWhatIfs answers read-only feasibility queries via the
// allocator's DryRun: no occupancy write, no epoch bump, no journal
// growth, so the answers leave the tick's admissions as they would be
// without them.
func (s *Service) processWhatIfs(whatifs []*pending) {
	for _, pd := range whatifs {
		_, item, err := core.AllocItem(pd.spec)
		if err != nil {
			s.answer(pd, reply{status: 400, body: map[string]any{"error": err.Error()}})
			continue
		}
		uc, err := s.p.Alloc.DryRun(item.Reqs)
		if err != nil {
			pd.t.rejected.Inc()
			s.tracePoint(pd, "dryrun", "alloc", "no fit: "+err.Error())
			s.answer(pd, reply{status: 200, body: map[string]any{"fits": false, "reason": err.Error()}})
			continue
		}
		slots := 0
		for _, u := range uc.Unicasts {
			slots += u.SlotCount()
		}
		for _, mc := range uc.Multicasts {
			slots += mc.InjectSlots.Count()
		}
		pd.t.accepted.Inc()
		s.tracePoint(pd, "dryrun", "alloc", fmt.Sprintf("fits, %d slots", slots))
		s.answer(pd, reply{status: 200, body: map[string]any{"fits": true, "slots": slots}})
	}
}

// openReply pairs a request with its deferred answer, delivered by
// runTick after the tick's configuration settles (opens carry their
// liveConn so the settled set-up span can be attached; closes leave it
// nil).
type openReply struct {
	pd  *pending
	rep reply
	lc  *liveConn
}

// processOpens admits the drafted opens as one batch through the
// platform and classifies every item for the journal: "ok" committed,
// "nofit" failed inside the allocator batch (no occupancy effect),
// "aborted" allocated but failed downstream (channel exhaustion) and
// was released — replay must reproduce the commit-then-release because
// the transient occupancy can have influenced later items' slots.
func (s *Service) processOpens(opens []*pending) ([]journalOpen, []openReply) {
	if len(opens) == 0 {
		return nil, nil
	}
	specs := make([]core.ConnectionSpec, len(opens))
	var parents []tracing.SpanRef
	for i, pd := range opens {
		specs[i] = pd.spec
		if pd.trace.Valid() {
			if parents == nil {
				parents = make([]tracing.SpanRef, len(opens))
			}
			parents[i] = pd.trace
		}
	}
	s.batchOpenSize.Observe(uint64(len(opens)))
	var conns []*core.Connection
	var errs []error
	if parents != nil {
		// Each traced item's set-up transaction (with its per-region
		// inject and settle children) hangs under the request span.
		conns, errs = s.p.OpenBatchTraced(specs, parents)
	} else {
		conns, errs = s.p.OpenBatch(specs)
	}

	recs := make([]journalOpen, 0, len(opens))
	replies := make([]openReply, 0, len(opens))
	for i, pd := range opens {
		if err := errs[i]; err != nil {
			outcome := outcomeAborted
			status := 500
			if errors.Is(err, core.ErrBatchAlloc) {
				outcome = outcomeNoFit
				status = 409
			} else if errors.Is(err, core.ErrNoChannel) {
				// Channel exhaustion is a capacity rejection to the
				// client, but its transient reservation makes it an
				// "aborted" for the journal (see processOpens doc).
				status = 409
			}
			recs = append(recs, journalOpen{Tenant: pd.t.cfg.Name, Spec: toWireSpec(pd.spec), Outcome: outcome})
			pd.t.rejected.Inc()
			s.tracePoint(pd, "alloc", "alloc", string(outcome)+": "+err.Error())
			replies = append(replies, openReply{pd: pd, rep: reply{status: status, body: map[string]any{"error": err.Error()}}})
			continue
		}
		s.nextHandle++
		lc := &liveConn{
			handle:     s.nextHandle,
			tenant:     pd.t.cfg.Name,
			spec:       pd.spec,
			cost:       pd.cost,
			conn:       conns[i],
			openedTick: s.tick,
		}
		s.conns[lc.handle] = lc
		pd.t.slotsUsed += pd.cost
		pd.t.conns++
		pd.t.accepted.Inc()
		s.tracePoint(pd, "alloc", "alloc", fmt.Sprintf("committed: handle %d, %d slots", lc.handle, pd.cost))
		recs = append(recs, journalOpen{Handle: lc.handle, Tenant: pd.t.cfg.Name, Spec: toWireSpec(pd.spec), Outcome: outcomeOK})
		replies = append(replies, openReply{
			pd: pd,
			rep: reply{status: 200, body: map[string]any{
				"handle": lc.handle,
				"slots":  pd.cost,
				"words":  conns[i].Setup.Words,
			}},
			lc: lc,
		})
	}
	return recs, replies
}

// tracePoint marks a pipeline milestone on a traced request's root span
// at the current platform cycle; untraced requests pay nothing.
func (s *Service) tracePoint(pd *pending, name, cat, detail string) {
	if pd.trace.Valid() {
		s.p.Tracer().Point(pd.trace, name, cat, detail, s.p.Cycle())
	}
}

// stageBreakdown decomposes a settled open into per-stage cycle counts:
// cross-tick queue wait, the inject window (configuration words draining
// through the region trees), and the fixed settle tail. All values come
// from the same cycle domain as the trace spans, so the sums reconcile
// with the connection's set-up span exactly.
func (s *Service) stageBreakdown(pd *pending, lc *liveConn) map[string]uint64 {
	queue := uint64(0)
	if pd.grantCyc > pd.enqCycle {
		queue = pd.grantCyc - pd.enqCycle
	}
	settleTail := s.p.ConfigSettleCycles()
	inject := uint64(0)
	if lc.setup > settleTail {
		inject = lc.setup - settleTail
	} else {
		settleTail = lc.setup
	}
	done := lc.conn.Setup.SettleCycle
	total := uint64(0)
	if done > pd.enqCycle {
		total = done - pd.enqCycle
	}
	return map[string]uint64{
		"queue_cycles":  queue,
		"inject_cycles": inject,
		"settle_cycles": settleTail,
		"total_cycles":  total,
	}
}

// answer delivers a reply exactly once and records the request's
// admission latency. Traced requests get their reply milestone and root
// span closed here — the one place every request funnels through.
func (s *Service) answer(pd *pending, r reply) {
	if pd.trace.Valid() {
		tr := s.p.Tracer()
		cycle := s.p.Cycle()
		tr.Point(pd.trace, "reply", "reply", fmt.Sprintf("status %d", r.status), cycle)
		tr.End(pd.queueSpan, cycle) // still open on pre-draft rejections
		tr.End(pd.trace, cycle)
	}
	pd.t.pending.Add(-1)
	if !pd.enq.IsZero() {
		us := time.Since(pd.enq).Microseconds()
		if us < 0 {
			us = 0
		}
		pd.t.latency.Observe(uint64(us))
	}
	// reply is buffered (capacity 1) and each pending is answered exactly
	// once, so this never blocks even when the requester is gone.
	if pd.reply != nil {
		pd.reply <- r
	}
}

// setGauges publishes the loop-owned counts into the gauges.
func (s *Service) setGauges() {
	s.tickGauge.Set(int64(s.tick))
	s.liveConnsGauge.Set(int64(len(s.conns)))
	for _, name := range s.order {
		t := s.tenants[name]
		t.queueGauge.Set(t.pending.Load())
		t.slotsGauge.Set(int64(t.slotsUsed))
		t.connsGauge.Set(int64(t.conns))
	}
}
