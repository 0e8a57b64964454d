package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// NDJSON snapshot format: one JSON object per line, each with a "record"
// discriminator. A snapshot opens with a meta record and then emits, in
// deterministic order: every metric (sorted by key), then every event
// still in the ring (emission order). encoding/json marshals maps with
// sorted keys, so two identical registry states produce byte-identical
// streams — the property the root determinism test asserts across runs.

type ndMeta struct {
	Record  string `json:"record"`
	Cycle   uint64 `json:"cycle"`
	Metrics int    `json:"metrics"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped_events,omitempty"`
}

type ndMetric struct {
	Record string            `json:"record"`
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`

	// counter / gauge
	Value *int64 `json:"value,omitempty"`

	// histogram
	Bounds []uint64 `json:"bounds,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
	Count  *uint64  `json:"count,omitempty"`
	Sum    *uint64  `json:"sum,omitempty"`

	// series
	Samples []SeriesSample `json:"samples,omitempty"`
}

type ndEvent struct {
	Record string `json:"record"`
	Event
}

// WriteNDJSON writes a full snapshot of the registry as NDJSON. cycle is
// the simulation cycle the snapshot was taken at (stamped into the meta
// record so offline analysis can align multiple snapshots).
func WriteNDJSON(w io.Writer, r *Registry, cycle uint64) error {
	entries := r.sortedEntries()
	events := r.Events()

	enc := json.NewEncoder(w)
	if err := enc.Encode(ndMeta{
		Record:  "meta",
		Cycle:   cycle,
		Metrics: len(entries),
		Events:  len(events),
		Dropped: r.DroppedEvents(),
	}); err != nil {
		return err
	}

	for _, e := range entries {
		rec := ndMetric{
			Record: e.kind.String(),
			Name:   e.name,
		}
		if len(e.labels) > 0 {
			rec.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				rec.Labels[l.Key] = l.Value
			}
		}
		switch e.kind {
		case kindCounter:
			v := int64(e.counter.Value())
			rec.Value = &v
		case kindGauge:
			v := e.gauge.Value()
			rec.Value = &v
		case kindHistogram:
			bounds, cum := e.hist.Buckets()
			count, sum := e.hist.Count(), e.hist.Sum()
			rec.Bounds = bounds
			rec.Counts = cum
			rec.Count = &count
			rec.Sum = &sum
		case kindSeries:
			rec.Samples = e.series.Samples()
		default:
			return fmt.Errorf("telemetry: unknown metric kind %v", e.kind)
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}

	for _, ev := range events {
		if err := enc.Encode(ndEvent{Record: "event", Event: ev}); err != nil {
			return err
		}
	}
	return nil
}
