package telemetry

// Exporter edge cases: the corners a scraper would trip over — label
// values needing escaping and the histogram's implicit +Inf bucket.

import (
	"strings"
	"testing"
)

// TestPrometheusLabelValueEscaping: label values carrying quotes,
// backslashes and newlines must render as valid Prometheus text, one
// metric per line. The exposition format escapes exactly those three;
// its parser rejects any other escape, so a tab, a control byte or a
// non-ASCII rune goes out as it is.
func TestPrometheusLabelValueEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("edge_total", L("path", `a\b`)).Add(1)
	reg.Counter("edge_total", L("path", `say "hi"`)).Add(2)
	reg.Counter("edge_total", L("path", "two\nlines")).Add(3)
	reg.Counter("edge_total", L("path", "tab\there")).Add(4)
	reg.Counter("edge_total", L("path", "ctl\x01byte")).Add(5)
	reg.Counter("edge_total", L("path", "nb\u00a0sp")).Add(6)

	var b strings.Builder
	if err := WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`daelite_edge_total{path="a\\b"} 1`,
		`daelite_edge_total{path="say \"hi\""} 2`,
		`daelite_edge_total{path="two\nlines"} 3`,
		"daelite_edge_total{path=\"tab\there\"} 4",
		"daelite_edge_total{path=\"ctl\x01byte\"} 5",
		"daelite_edge_total{path=\"nb\u00a0sp\"} 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q in:\n%s", want, out)
		}
	}
	// A raw newline inside a label value would split the series across
	// lines and corrupt the exposition; every line must be a comment, a
	// metric sample, or empty.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "daelite_") {
			t.Errorf("stray exposition line %q — unescaped newline?", line)
		}
	}
}

// TestPrometheusHistogramInfBucket: the +Inf bucket must always render,
// equal the total count, and sit above every finite cumulative bucket
// even when samples exceed the top bound.
func TestPrometheusHistogramInfBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_cycles", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)  // beyond the top bound: only countable via +Inf
	h.Observe(5000) // ditto

	var b strings.Builder
	if err := WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`daelite_lat_cycles_bucket{le="10"} 1`,
		`daelite_lat_cycles_bucket{le="100"} 2`,
		`daelite_lat_cycles_bucket{le="+Inf"} 4`,
		`daelite_lat_cycles_count 4`,
		`daelite_lat_cycles_sum 5555`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram export missing %q in:\n%s", want, out)
		}
	}
	// +Inf must come from the count, not the last finite bucket: an
	// exporter that dropped the overflow samples would emit 2 here.
	if strings.Contains(out, `le="+Inf"} 2`) {
		t.Error("+Inf bucket lost the overflow samples")
	}
}
