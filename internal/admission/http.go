package admission

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"daelite/internal/core"
	"daelite/internal/telemetry"
)

// Handler returns the service's HTTP API (JSON request/response):
//
//	POST   /v1/connections          open a connection (OpenRequest body)
//	DELETE /v1/connections/{handle} tear one down (?tenant= names the owner)
//	POST   /v1/whatif               read-only feasibility check (OpenRequest body)
//	GET    /v1/connections          live connections
//	GET    /v1/tenants              tenant accounting and queue state
//	GET    /v1/fingerprint          allocator fingerprint / epoch / journal seq / tick
//	POST   /v1/snapshot             write a snapshot now
//	GET    /v1/info                 platform geometry and service config
//	GET    /healthz                 liveness
//	GET    /metrics                 Prometheus text format
//
// GET /v1/connections, /v1/tenants and /v1/fingerprint are answered by
// the service loop between ticks, after every mutation already answered;
// they wait rather than refuse under load. Overload and shutdown answer 503 with a Retry-After header;
// quota violations answer 429; infeasible opens answer 409.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/connections", s.handleOpen)
	mux.HandleFunc("DELETE /v1/connections/{handle}", s.handleClose)
	mux.HandleFunc("POST /v1/whatif", s.handleWhatIf)
	mux.HandleFunc("GET /v1/connections", s.handleListConns)
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("GET /v1/fingerprint", s.handleFingerprint)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = telemetry.WritePrometheus(w, s.reg)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, body map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// retryAfterSeconds renders the backpressure hint (whole seconds,
// minimum 1 — the header's granularity).
func (s *Service) retryAfterSeconds() string {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Service) writeRefused(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
}

// maxBodyBytes bounds an OpenRequest body; a larger one answers 413.
const maxBodyBytes = 1 << 20

// decodeOpen parses and resolves an OpenRequest body into a normalized
// spec plus the owning tenant and trace opt-in, answering the request
// itself on failure.
func (s *Service) decodeOpen(w http.ResponseWriter, r *http.Request) (*tenant, core.ConnectionSpec, int, bool, bool) {
	var req OpenRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]any{"error": "bad request body: " + err.Error()})
		return nil, core.ConnectionSpec{}, 0, false, false
	}
	t, ok := s.tenants[req.Tenant]
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("unknown tenant %q", req.Tenant)})
		return nil, core.ConnectionSpec{}, 0, false, false
	}
	spec, err := req.Spec(s.p.Mesh)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return nil, core.ConnectionSpec{}, 0, false, false
	}
	// Normalize exactly as admission will, so quota charges and journal
	// records agree with the allocator's view of the demand.
	normalized, _, err := core.AllocItem(spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return nil, core.ConnectionSpec{}, 0, false, false
	}
	return t, normalized, SlotCost(normalized), req.Trace, true
}

// await submits and blocks for the single reply.
func (s *Service) await(w http.ResponseWriter, pd *pending) {
	if err := s.submit(pd); err != nil {
		s.writeRefused(w, err)
		return
	}
	rep := <-pd.reply
	writeJSON(w, rep.status, rep.body)
}

func (s *Service) handleOpen(w http.ResponseWriter, r *http.Request) {
	t, spec, cost, trace, ok := s.decodeOpen(w, r)
	if !ok {
		return
	}
	// An open demanding more than the wheel can never fit (a link only
	// has Wheel TDM slots); reject it at the wire so queued opens' slot
	// costs are bounded and the drafting deficit is guaranteed to reach
	// them. What-ifs skip this — they are charged a draft cost of 1 and
	// answer such probes read-only with fits=false.
	if wheel := s.p.Params.Wheel; spec.SlotsFwd > wheel || spec.SlotsRev > wheel {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("slot demand exceeds the wheel: slots_fwd=%d slots_rev=%d, wheel=%d", spec.SlotsFwd, spec.SlotsRev, wheel),
		})
		return
	}
	pd := &pending{op: opOpen, t: t, spec: spec, cost: cost, enq: time.Now(), reply: make(chan reply, 1), wantTrace: trace}
	s.await(w, pd)
}

func (s *Service) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	t, spec, cost, trace, ok := s.decodeOpen(w, r)
	if !ok {
		return
	}
	pd := &pending{op: opWhatIf, t: t, spec: spec, cost: cost, enq: time.Now(), reply: make(chan reply, 1), wantTrace: trace}
	s.await(w, pd)
}

func (s *Service) handleClose(w http.ResponseWriter, r *http.Request) {
	handle, err := strconv.ParseUint(r.PathValue("handle"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad handle: " + r.PathValue("handle")})
		return
	}
	t, ok := s.tenants[r.URL.Query().Get("tenant")]
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("unknown tenant %q", r.URL.Query().Get("tenant"))})
		return
	}
	pd := &pending{op: opClose, t: t, handle: handle, enq: time.Now(), reply: make(chan reply, 1),
		wantTrace: r.URL.Query().Get("trace") != ""}
	s.await(w, pd)
}

func (s *Service) handleListConns(w http.ResponseWriter, r *http.Request) {
	conns := s.Conns()
	writeJSON(w, http.StatusOK, map[string]any{"conns": conns, "count": len(conns)})
}

func (s *Service) handleListTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.Tenants()})
}

func (s *Service) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	var fp, epoch, seq, tick uint64
	s.atBoundary(func() {
		fp, epoch, seq = s.fingerprint()
		tick = s.tick
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"fingerprint": fmt.Sprintf("%016x", fp),
		"epoch":       epoch,
		"seq":         seq,
		"tick":        tick,
	})
}

func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	seq, err := s.snapshot()
	if err != nil {
		if err == errShuttingDown {
			s.writeRefused(w, err)
			return
		}
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshot": s.cfg.SnapshotPath, "seq": seq})
}

func (s *Service) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"mesh":         fmt.Sprintf("%dx%d", s.p.Mesh.Spec.Width, s.p.Mesh.Spec.Height),
		"wheel":        s.p.Params.Wheel,
		"num_channels": s.p.Params.NumChannels,
		"max_batch":    s.cfg.MaxBatch,
		"tenants":      s.cfg.Tenants,
		"journal":      s.cfg.JournalPath,
		"snapshot":     s.cfg.SnapshotPath,
	})
}
