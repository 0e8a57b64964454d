package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteChrome renders the tracer's rings as Chrome trace-event JSON —
// the format Perfetto and chrome://tracing load directly. One cycle maps
// to one microsecond of trace time (the viewers have no notion of
// cycles), each trace becomes one process group (pid = trace ID) and
// each span one complete "X" event on its own thread row (tid = span
// ID), so a cross-region set-up shows as a fan-out of rows under one
// process; parent links ride in args. Events become instant "i" marks.
// In-flight spans are emitted as zero-length marks at their start so a
// post-mortem dump still shows what never finished.
//
// Output is deterministic: rings are written in insertion order and
// every byte is derived from cycle-domain state, so two runs of the
// same workload produce identical files.
func WriteChrome(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	sep := func() error {
		if first {
			first = false
			return nil
		}
		_, err := bw.WriteString(",\n")
		return err
	}
	for _, s := range t.Spans() {
		if err := sep(); err != nil {
			return err
		}
		if err := writeChromeSpan(bw, s, "X"); err != nil {
			return err
		}
	}
	for _, s := range t.OpenSpans() {
		if err := sep(); err != nil {
			return err
		}
		if err := writeChromeSpan(bw, s, "I"); err != nil {
			return err
		}
	}
	for _, e := range t.Events() {
		if err := sep(); err != nil {
			return err
		}
		name, err := json.Marshal(e.Name)
		if err != nil {
			return err
		}
		cat, err := json.Marshal(e.Cat)
		if err != nil {
			return err
		}
		detail, err := json.Marshal(e.Detail)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw,
			"{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":\"g\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"detail\":%s}}",
			name, cat, e.Cycle, e.Trace, e.Span, detail); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func writeChromeSpan(w io.Writer, s Span, ph string) error {
	name, err := json.Marshal(s.Name)
	if err != nil {
		return err
	}
	cat, err := json.Marshal(s.Cat)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "{\"name\":%s,\"cat\":%s,\"ph\":%q,\"ts\":%d", name, cat, ph, s.Start); err != nil {
		return err
	}
	if ph == "X" {
		if _, err := fmt.Fprintf(w, ",\"dur\":%d", s.Cycles()); err != nil {
			return err
		}
	} else if _, err := io.WriteString(w, ",\"s\":\"t\""); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, ",\"pid\":%d,\"tid\":%d,\"args\":{\"parent\":%d", s.Trace, s.ID, s.Parent); err != nil {
		return err
	}
	for _, a := range s.Attrs {
		k, err := json.Marshal(a.Key)
		if err != nil {
			return err
		}
		v, err := json.Marshal(a.Value)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, ",%s:%s", k, v); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "}}")
	return err
}
