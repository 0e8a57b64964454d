package admission

// Request tracing through the service: a traced open must produce one
// "request" root span whose children cover the whole pipeline (queue
// wait, DRR grant, dry run, commit, the set-up transaction with its
// inject/settle fan-out, reply), and the reply's stage breakdown must
// reconcile with the trace. Also covers the load driver's TraceSample
// plumbing end to end over an in-process server.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
)

// tracedService is testService with a tracer attached to the platform
// before the service starts, as daelite admd does.
func tracedService(t *testing.T, cfg Config) (*Service, *httptest.Server, *tracing.Tracer) {
	t.Helper()
	if cfg.Tenants == nil {
		cfg.Tenants = defaultTenants()
	}
	p := testPlatform(t, 4, 4)
	tr := tracing.New(tracing.Options{})
	p.AttachTracer(tr)
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
	return s, srv, tr
}

func TestTracedOpenSpansAndStages(t *testing.T) {
	_, srv, tr := tracedService(t, Config{})

	status, body := post(t, srv.URL, "/v1/connections", map[string]any{
		"tenant": "alpha", "src": "0,1", "dst": "3,2", "slots_fwd": 2, "trace": true,
	})
	if status != http.StatusOK {
		t.Fatalf("open: %d %v", status, body)
	}

	// The reply must carry the stage breakdown, and the cycle-domain
	// stages must add up: queue + inject + settle = total.
	stages, ok := body["stages"].(map[string]any)
	if !ok {
		t.Fatalf("traced open reply has no stages: %v", body)
	}
	get := func(k string) uint64 {
		v, ok := stages[k].(float64)
		if !ok {
			t.Fatalf("stages missing %q: %v", k, stages)
		}
		return uint64(v)
	}
	queue, inject, settle, total := get("queue_cycles"), get("inject_cycles"), get("settle_cycles"), get("total_cycles")
	if queue+inject+settle != total {
		t.Errorf("stages do not reconcile: queue %d + inject %d + settle %d != total %d",
			queue, inject, settle, total)
	}
	if inject+settle == 0 {
		t.Error("set-up took zero cycles according to the breakdown")
	}

	// The trace itself: one request root, with queue / setup children,
	// the setup fanning into inject + settle, and the pipeline events.
	spans := tr.Spans()
	var root tracing.Span
	children := map[uint64][]tracing.Span{}
	for _, s := range spans {
		if s.Cat == "request" {
			root = s
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if root.ID == 0 {
		t.Fatalf("no request root span in %d spans", len(spans))
	}
	if root.Name != "open alpha" {
		t.Errorf("request root named %q, want \"open alpha\"", root.Name)
	}
	var queueSpan, setupSpan tracing.Span
	for _, ch := range children[root.ID] {
		switch ch.Cat {
		case "queue":
			queueSpan = ch
		case "setup":
			setupSpan = ch
		}
	}
	if queueSpan.ID == 0 || setupSpan.ID == 0 {
		t.Fatalf("request root missing queue/setup children: %+v", children[root.ID])
	}
	if got := queueSpan.Cycles(); got != queue {
		t.Errorf("queue span %d cycles, stage breakdown says %d", got, queue)
	}
	if got := setupSpan.Cycles(); got != inject+settle {
		t.Errorf("setup span %d cycles, stage breakdown says %d", got, inject+settle)
	}
	if got := root.Cycles(); got < total {
		t.Errorf("request root %d cycles < stage total %d", got, total)
	}
	var haveInject, haveSettle bool
	for _, ch := range children[setupSpan.ID] {
		switch ch.Cat {
		case "inject":
			haveInject = true
		case "settle":
			haveSettle = true
		}
	}
	if !haveInject || !haveSettle {
		t.Errorf("setup span lacks inject/settle children: %+v", children[setupSpan.ID])
	}
	events := map[string]string{}
	for _, ev := range tr.Events() {
		if ev.Trace == root.Trace {
			events[ev.Name] = ev.Detail
		}
	}
	for _, want := range []string{"drr_grant", "alloc", "reply"} {
		if _, ok := events[want]; !ok {
			t.Errorf("trace missing %q event (have %v)", want, events)
		}
	}
	if !strings.HasPrefix(events["alloc"], "committed") {
		t.Errorf("alloc event is not a commit: %q", events["alloc"])
	}

	// A traced what-if answers from the dry run and must say so.
	status, body = post(t, srv.URL, "/v1/whatif", map[string]any{
		"tenant": "beta", "src": "1,1", "dst": "2,3", "slots_fwd": 1, "trace": true,
	})
	if status != http.StatusOK {
		t.Fatalf("whatif: %d %v", status, body)
	}
	var sawDryRun bool
	for _, ev := range tr.Events() {
		if ev.Name == "dryrun" {
			sawDryRun = true
		}
	}
	if !sawDryRun {
		t.Error("traced what-if emitted no dryrun event")
	}
}

// TestUntracedRequestEmitsNothing: without the per-request opt-in (and
// without TraceAll) an attached tracer must stay silent, so tracing can
// ride in production behind sampling.
func TestUntracedRequestEmitsNothing(t *testing.T) {
	_, srv, tr := tracedService(t, Config{})
	status, body := post(t, srv.URL, "/v1/connections", openReq("alpha", 1, 14, 1))
	if status != http.StatusOK {
		t.Fatalf("open: %d %v", status, body)
	}
	if _, ok := body["stages"]; ok {
		t.Error("untraced reply carries a stage breakdown")
	}
	for _, s := range tr.Spans() {
		if s.Cat == "request" || s.Cat == "queue" {
			t.Fatalf("untraced request produced span %+v", s)
		}
	}
}

// TestLoadDriverTraceSample: RunLoad with TraceSample traces every Nth
// request end to end and aggregates the returned stage breakdowns into
// the report.
func TestLoadDriverTraceSample(t *testing.T) {
	_, srv, _ := tracedService(t, Config{MaxBatch: 16})
	rep, err := RunLoad(LoadConfig{
		BaseURL:     srv.URL,
		Requests:    120,
		Concurrency: 4,
		Seed:        9,
		TraceSample: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("load run had %d errors: %+v", rep.Errors, rep.BadStatus)
	}
	if rep.TracedOpens == 0 {
		t.Fatal("TraceSample=3 over 120 requests traced no accepted opens")
	}
	for _, stage := range []string{"queue", "inject", "settle", "total"} {
		if _, ok := rep.Stages[stage]; !ok {
			t.Errorf("report missing stage %q: %+v", stage, rep.Stages)
		}
	}
	if st := rep.Stages["total"]; st.P50 <= 0 || st.P99 < st.P50 {
		t.Errorf("nonsensical total stage percentiles: %+v", st)
	}
	if !strings.Contains(rep.String(), "stages over") {
		t.Errorf("report text lacks the stage line:\n%s", rep.String())
	}
}
