package conformance

// The flight-recorder end of the mutation smoke: plant the same seeded
// slot-table corruption the checkers are proven to catch, with a tracer
// and armed recorder riding along, and assert the violation trigger
// actually produces a dump whose contents name the violating cycle and
// link. A black box that does not open on a planted crash would not
// open on a real one.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

func TestFlightRecorderDumpsOnPlantedViolation(t *testing.T) {
	params := core.DefaultParams()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	tr := tracing.New(tracing.Options{})
	p.AttachTracer(tr)
	prefix := filepath.Join(t.TempDir(), "flight")
	rec := tracing.NewRecorder(tr, prefix)

	var caught []Violation
	reg := telemetry.NewRegistry()
	ck := Attach(p, reg, Options{SampleEvery: 32, OnViolation: func(v Violation) {
		caught = append(caught, v)
		if _, err := rec.Dump("conformance-" + v.Check); err != nil {
			t.Errorf("dump: %v", err)
		}
	}})

	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(2, 2, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ck.Resync()
	p.Run(256)
	if ck.Violations() != 0 {
		t.Fatalf("healthy platform reported %d violations", ck.Violations())
	}

	// Plant the corruption the mutation smoke uses: clear a programmed
	// slot-table entry on the first router-owned hop.
	link := p.Mesh.Graph.Link(c.Fwd.Paths[0].Path[1])
	slot := p.Alloc.LinkOccupancy(link.ID).Slots()[0]
	if _, err := fault.Attach(p, 3, fault.Fault{
		Kind: fault.SlotTableFlip, Router: link.From, Out: link.FromPort,
		Slot: slot, From: p.Cycle() + 8,
	}); err != nil {
		t.Fatal(err)
	}
	p.Run(256)

	if len(caught) == 0 {
		t.Fatal("planted slot-table corruption triggered no OnViolation callback")
	}
	v := caught[0]

	// The recorder must have produced both dump files for the violating
	// check, exactly once despite repeated violations.
	nd := prefix + "-conformance-" + v.Check + ".ndjson"
	chrome := prefix + "-conformance-" + v.Check + ".trace.json"
	ndBytes, err := os.ReadFile(nd)
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	if _, err := os.ReadFile(chrome); err != nil {
		t.Fatalf("flight trace missing: %v", err)
	}

	// The dump must name what went wrong: a conformance_violation event
	// carrying the violating cycle and the corrupted link/slot detail.
	var seen bool
	for _, line := range strings.Split(strings.TrimSpace(string(ndBytes)), "\n") {
		var ev struct {
			Record string `json:"record"`
			Name   string `json:"name"`
			Cycle  uint64 `json:"cycle"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad dump line %q: %v", line, err)
		}
		if ev.Record != "trace_event" || ev.Name != "conformance_violation" {
			continue
		}
		seen = true
		if ev.Cycle != v.Cycle {
			t.Errorf("dump names cycle %d, violation was at %d", ev.Cycle, v.Cycle)
		}
		if ev.Detail != v.Detail {
			t.Errorf("dump detail %q != violation detail %q", ev.Detail, v.Detail)
		}
		from := p.Mesh.Node(link.From).Name
		if !strings.Contains(ev.Detail, from) {
			t.Errorf("dump detail %q does not name the corrupted router %s", ev.Detail, from)
		}
	}
	if !seen {
		t.Fatal("dump contains no conformance_violation event")
	}

	// Re-triggering the same reason must not clobber the first dump.
	before, err := os.Stat(nd)
	if err != nil {
		t.Fatal(err)
	}
	if paths, err := rec.Dump("conformance-" + v.Check); err != nil || paths != nil {
		t.Fatalf("second dump for the same reason: paths=%v err=%v", paths, err)
	}
	after, err := os.Stat(nd)
	if err != nil {
		t.Fatal(err)
	}
	if after.ModTime() != before.ModTime() || after.Size() != before.Size() {
		t.Error("second dump for the same reason rewrote the file")
	}
	if got := recordedText(ck.Recorded()); got != flightRecorderRecorded {
		t.Errorf("planted flip recorded:\n%s\npinned:\n%s", got, flightRecorderRecorded)
	}
}
