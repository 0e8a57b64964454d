package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Metric families are emitted in sorted-name
// order and label sets in sorted-key order, so the output for a given
// registry state is deterministic. Series are exported as a gauge holding
// the most recent sample. The event ring has no Prometheus form: its
// counts are the events_total counters, and its records are in the
// NDJSON export.
func WritePrometheus(w io.Writer, r *Registry) error {
	entries := r.sortedEntries()

	// Group by name so each family gets exactly one # TYPE line even
	// when several label sets share it.
	typeWritten := make(map[string]bool)
	writeType := func(name, typ string) error {
		if typeWritten[name] {
			return nil
		}
		typeWritten[name] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		return err
	}

	for _, e := range entries {
		name := promName(e.name)
		switch e.kind {
		case kindCounter:
			if err := writeType(name, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, promLabels(e.labels, ""), e.counter.Value()); err != nil {
				return err
			}
		case kindGauge:
			if err := writeType(name, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, promLabels(e.labels, ""), e.gauge.Value()); err != nil {
				return err
			}
		case kindHistogram:
			if err := writeType(name, "histogram"); err != nil {
				return err
			}
			bounds, cum := e.hist.Buckets()
			for i, ub := range bounds {
				le := fmt.Sprintf("%d", ub)
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(e.labels, le), cum[i]); err != nil {
					return err
				}
			}
			count := e.hist.Count()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(e.labels, "+Inf"), count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, promLabels(e.labels, ""), e.hist.Sum()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(e.labels, ""), count); err != nil {
				return err
			}
		case kindSeries:
			if err := writeType(name, "gauge"); err != nil {
				return err
			}
			last, ok := e.series.Last()
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %g\n", name, promLabels(e.labels, ""), last.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// promName maps a registry metric name to a Prometheus metric name:
// prefixed with daelite_ and with invalid characters replaced.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("daelite_")
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value the way the exposition format does:
// backslash, double quote and newline, and nothing else.
var promEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders a label set (plus an optional le bucket label) as
// {k="v",...}, or the empty string for no labels.
func promLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, l := range labels {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%s=\"%s\"", promLabelKey(l.Key), promEscape.Replace(l.Value))
	}
	if le != "" {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=\"%s\"", le)
	}
	b.WriteByte('}')
	return b.String()
}

func promLabelKey(k string) string {
	var b strings.Builder
	for i, r := range k {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
