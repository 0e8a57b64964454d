package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flits_total", L("link", "0"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	c.Store(42)
	if got := c.Value(); got != 42 {
		t.Errorf("after Store, counter = %d, want 42", got)
	}
	// Get-or-create: same name+labels returns the same instance,
	// regardless of label order.
	if c2 := r.Counter("flits_total", L("link", "0")); c2 != c {
		t.Error("same name+labels returned a different counter")
	}
	g := r.Gauge("queue_depth", L("ni", "3"), L("ch", "1"))
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Errorf("gauge = %d, want -7", got)
	}
	if g2 := r.Gauge("queue_depth", L("ch", "1"), L("ni", "3")); g2 != g {
		t.Error("label order changed gauge identity")
	}
	if n := r.NumMetrics(); n != 2 {
		t.Errorf("NumMetrics = %d, want 2", n)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("setup_cycles", []uint64{10, 100, 1000})
	for _, v := range []uint64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 5126 {
		t.Errorf("sum = %d, want 5126", h.Sum())
	}
	bounds, cum := h.Buckets()
	wantBounds := []uint64{10, 100, 1000}
	wantCum := []uint64{2, 4, 4} // <=10: {5,10}; <=100: +{11,100}; <=1000: none more
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] || cum[i] != wantCum[i] {
			t.Errorf("bucket %d: (%d,%d), want (%d,%d)", i, bounds[i], cum[i], wantBounds[i], wantCum[i])
		}
	}
}

func TestSeriesWindow(t *testing.T) {
	r := NewRegistry()
	s := r.Series("util", 4)
	for i := 0; i < 10; i++ {
		s.Append(uint64(i), float64(i)/10)
	}
	got := s.Samples()
	if len(got) != 4 {
		t.Fatalf("window = %d samples, want 4", len(got))
	}
	if got[0].Cycle != 6 || got[3].Cycle != 9 {
		t.Errorf("window holds cycles %d..%d, want 6..9", got[0].Cycle, got[3].Cycle)
	}
	last, ok := s.Last()
	if !ok || last.Cycle != 9 {
		t.Errorf("Last = %+v/%v, want cycle 9", last, ok)
	}
}

// TestEventsCountPastTheRing: the event ring keeps the last MaxEvents
// events, but events_total counts every one of them.
func TestEventsCountPastTheRing(t *testing.T) {
	r := NewRegistry()
	r.MaxEvents = 3
	for i := 0; i < 5; i++ {
		r.Emit(Event{Cycle: uint64(i), Kind: "tick"})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3 (capped)", len(evs))
	}
	if evs[0].Cycle != 2 || evs[2].Cycle != 4 {
		t.Errorf("event window holds cycles %d..%d, want 2..4", evs[0].Cycle, evs[2].Cycle)
	}
	if d := r.DroppedEvents(); d != 2 {
		t.Errorf("dropped = %d, want 2", d)
	}

	var prom, nd bytes.Buffer
	if err := WritePrometheus(&prom, r); err != nil {
		t.Fatal(err)
	}
	if want := `daelite_events_total{kind="tick"} 5`; !strings.Contains(prom.String(), want) {
		t.Errorf("prometheus missing %q:\n%s", want, prom.String())
	}
	if err := WriteNDJSON(&nd, r, 5); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(nd.String(), `"record":"event"`); n != 3 {
		t.Errorf("NDJSON holds %d event records, want 3:\n%s", n, nd.String())
	}
	if !strings.Contains(nd.String(), `"dropped_events":2`) {
		t.Errorf("NDJSON meta lacks dropped_events 2:\n%s", nd.String())
	}
}

// buildSample fills a registry with one metric of each kind plus an
// event, for the exporter tests.
func buildSample() *Registry {
	r := NewRegistry()
	r.Counter("flits_total", L("link", "r0>r1")).Add(128)
	r.Gauge("send_queue_depth", L("ni", "0"), L("ch", "1")).Set(3)
	h := r.Histogram("setup_cycles", []uint64{64, 128})
	h.Observe(60)
	h.Observe(200)
	s := r.Series("link_util", 8, L("link", "r0>r1"))
	s.Append(100, 0.25)
	s.Append(200, 0.5)
	r.Emit(Event{Cycle: 300, Kind: "fault", Detail: "link down"})
	return r
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, buildSample()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE daelite_flits_total counter",
		`daelite_flits_total{link="r0>r1"} 128`,
		`daelite_send_queue_depth{ch="1",ni="0"} 3`,
		"# TYPE daelite_setup_cycles histogram",
		`daelite_setup_cycles_bucket{le="64"} 1`,
		`daelite_setup_cycles_bucket{le="+Inf"} 2`,
		"daelite_setup_cycles_sum 260",
		"daelite_setup_cycles_count 2",
		`daelite_link_util{link="r0>r1"} 0.5`,
		`daelite_events_total{kind="fault"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Deterministic: two renders of the same state are byte-identical.
	var buf2 bytes.Buffer
	if err := WritePrometheus(&buf2, buildSample()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("two prometheus renders of identical registries differ")
	}
}

func TestWriteNDJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, buildSample(), 12345); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// meta + 4 metrics + events_total + 1 event
	if len(lines) != 7 {
		t.Fatalf("%d NDJSON lines, want 7:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], `"record":"meta"`) || !strings.Contains(lines[0], `"cycle":12345`) {
		t.Errorf("meta line = %s", lines[0])
	}
	for _, want := range []string{
		`"record":"counter"`, `"record":"gauge"`, `"record":"histogram"`,
		`"record":"series"`, `"record":"event"`, `"kind":"fault"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("NDJSON missing %q\n--- got ---\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := WriteNDJSON(&buf2, buildSample(), 12345); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("two NDJSON renders of identical registries differ")
	}
}

// TestConcurrentScrape exercises the exporter-reads-while-writer-updates
// contract under the race detector: one goroutine mutates scalars the way
// a probe would, another renders snapshots the way the HTTP handler does.
func TestConcurrentScrape(t *testing.T) {
	r := buildSample()
	c := r.Counter("flits_total", L("link", "r0>r1"))
	g := r.Gauge("send_queue_depth", L("ni", "0"), L("ch", "1"))
	h := r.Histogram("setup_cycles", []uint64{64, 128})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c.Inc()
			g.Set(int64(i))
			h.Observe(uint64(i % 300))
			if i%100 == 0 {
				r.Emit(Event{Cycle: uint64(i), Kind: "tick"})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := WritePrometheus(&buf, r); err != nil {
				t.Error(err)
				return
			}
			if err := WriteNDJSON(&buf, r, uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
