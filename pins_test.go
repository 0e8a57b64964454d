package daelite

// TestPins is the behavioural yardstick of the whole simulator. Two runs
// that agree with each other prove nothing when both are wrong, so each
// row runs one scenario and must reproduce recorded absolute constants:
// the delivered words, a per-connection fold of (word, delivery cycle,
// SubmitCycle), three views of every NI wire (payload flits, non-zero
// credit chunks and a count of zero-credit carriers), the skipped and
// evaluated component-cycles, the allocator fingerprint, the fault
// counters and repairs, the end cycle, and an FNV-1a hash of every
// export the row attaches.
//
// A row named x+ff is row x with fast-forward on. It must equal x in
// every field except skipped, evaluated and offered, and it must skip.
// A row's must list names strings its exports have to contain, so that
// the scenario still exercises what its constants are meant to cover.
//
// Updating: on a mismatch the test prints the row's replacement want
// line as a Go literal. Paste it over the row; the diff of the table is
// the change's stated behavioural change.

import (
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
	"testing"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/stats"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
	"daelite/internal/traffic"
	"daelite/internal/workload"
)

// pinResult is everything a row must reproduce.
type pinResult struct {
	delivered          uint64
	conns              uint64 // fold of the per-connection (word, cycle, submit) folds; a pack's Result.Fingerprint
	payload            uint64 // fold of (wire, cycle, data, tag) of every Valid flit on an NI wire
	credits            uint64 // fold of (wire, cycle, credit) of every flit with Credit != 0
	carriers           uint64 // count of CreditValid flits with Credit == 0
	skipped            uint64
	evaluated, offered uint64 // Simulator.Evaluations
	alloc              uint64
	cycles             uint64
	faults             fault.Counters
	repairs            int
	// FNV-1a hashes of the Prometheus, telemetry NDJSON, Chrome and
	// trace NDJSON exports; zero when the row does not attach them.
	prom, ndjson, chrome, traceND uint64
}

// String renders r as the Go literal of a row's want, leaving out the
// optional fields that are zero.
func (r pinResult) String() string {
	s := fmt.Sprintf("pinResult{delivered: %d, conns: %#016x, payload: %#016x, credits: %#016x, carriers: %d, skipped: %d, evaluated: %d, offered: %d, alloc: %#016x, cycles: %d",
		r.delivered, r.conns, r.payload, r.credits, r.carriers, r.skipped, r.evaluated, r.offered, r.alloc, r.cycles)
	if r.faults != (fault.Counters{}) {
		var fs []string
		for _, f := range strings.Fields(strings.Trim(fmt.Sprintf("%+v", r.faults), "{}")) {
			if !strings.HasSuffix(f, ":0") {
				fs = append(fs, strings.Replace(f, ":", ": ", 1))
			}
		}
		s += ", faults: fault.Counters{" + strings.Join(fs, ", ") + "}"
	}
	if r.repairs != 0 {
		s += fmt.Sprintf(", repairs: %d", r.repairs)
	}
	for _, h := range []struct {
		name string
		v    uint64
	}{{"prom", r.prom}, {"ndjson", r.ndjson}, {"chrome", r.chrome}, {"traceND", r.traceND}} {
		if h.v != 0 {
			s += fmt.Sprintf(", %s: %#016x", h.name, h.v)
		}
	}
	return s + "}"
}

// observers names the exporters a run attaches.
type observers uint8

const (
	obsTelemetry observers = 1 << iota // registry with 8-cycle series; Prometheus and NDJSON exports
	obsStats                           // stats monitor publishing link load
	obsTracer                          // causal tracer; Chrome and NDJSON exports
)

// recorder carries a platform and the folds its probes accumulate.
type recorder struct {
	p        *core.Platform
	reg      *telemetry.Registry
	tr       *tracing.Tracer
	hash     []sim.Fingerprint
	sinks    []*traffic.Sink
	payload  sim.Fingerprint
	credits  sim.Fingerprint
	carriers uint64
}

// mode is how a row runs: with fast-forward, and under the kernel's
// sleep-proof audit (sim.Simulator.Audit), which must not move any
// constant.
type mode struct{ ff, audit bool }

// record attaches the observers to p and installs the wire probe: after
// every stepped cycle it looks at each NI's output wire and at the
// router wire feeding each NI, and folds payload and credit bits
// separately, so a change to the zero-credit carriers alone moves
// carriers only. Under m.audit the run fails at the first write a
// sleeping component would have lost.
func record(t *testing.T, p *core.Platform, observe observers, m mode) *recorder {
	if m.audit {
		p.Sim.Audit(func(msg string) { t.Fatal(msg) })
	}
	r := &recorder{p: p}
	var wires []*sim.Reg[phit.Flit]
	for _, id := range p.Mesh.AllNIs {
		wires = append(wires, p.NI(id).OutputWire())
	}
	for _, l := range p.Mesh.Links() {
		if rt := p.Router(l.From); rt != nil && p.NI(l.To) != nil {
			wires = append(wires, rt.OutputWire(l.FromPort))
		}
	}
	p.Sim.AddProbe(func(cycle uint64) {
		for i, w := range wires {
			f := w.Get()
			if f.Valid {
				tag := p.Sim.Provenance(f.Ref)
				r.payload = r.payload.Mix(uint64(i)).Mix(cycle).Mix(uint64(f.Data)).
					Mix(uint64(tag.Channel)).Mix(tag.Seq).Mix(tag.SubmitCycle).Mix(tag.InjectCycle)
			}
			if f.Credit != 0 {
				r.credits = r.credits.Mix(uint64(i)).Mix(cycle).Mix(uint64(f.Credit))
			} else if f.CreditValid {
				r.carriers++
			}
		}
	})
	if observe&obsTelemetry != 0 {
		r.reg = telemetry.NewRegistry()
		p.AttachTelemetry(r.reg, 8)
	}
	if observe&obsTracer != 0 {
		r.tr = tracing.New(tracing.Options{})
		p.AttachTracer(r.tr)
	}
	if observe&obsStats != 0 {
		stats.NewMonitor(p)
	}
	return r
}

// sink attaches a folding sink to connection c's destination.
func (r *recorder) sink(name string, c *core.Connection) {
	i := len(r.hash)
	r.hash = append(r.hash, 0)
	k := traffic.NewSink(r.p.Sim, name, r.p.NI(c.Spec.Dst), c.DstChannel)
	k.SetVerify(func(d ni.Delivery) error {
		r.hash[i] = r.hash[i].Mix(uint64(d.Word)).Mix(d.Cycle).Mix(d.Tag.SubmitCycle)
		return nil
	})
	r.sinks = append(r.sinks, k)
}

// result folds the probes and renders the attached exports; text is the
// exports' concatenation, which the row's must list is checked against.
func (r *recorder) result(t *testing.T) (pinResult, string) {
	p := r.p
	res := pinResult{payload: r.payload.Sum(), credits: r.credits.Sum(), carriers: r.carriers,
		skipped: p.Sim.SkippedCycles(), alloc: p.Alloc.Fingerprint(), cycles: p.Cycle()}
	res.evaluated, res.offered = p.Sim.Evaluations()
	var conns sim.Fingerprint
	for i, h := range r.hash {
		conns = conns.Mix(h.Sum())
		res.delivered += r.sinks[i].Received()
	}
	res.conns = conns.Sum()
	var text strings.Builder
	export := func(dst *uint64, write func(io.Writer) error) {
		h := fnv.New64a()
		if err := write(io.MultiWriter(&text, h)); err != nil {
			t.Fatal(err)
		}
		*dst = h.Sum64()
	}
	if r.reg != nil {
		p.FlushTelemetry()
		export(&res.prom, func(w io.Writer) error { return telemetry.WritePrometheus(w, r.reg) })
		export(&res.ndjson, func(w io.Writer) error { return telemetry.WriteNDJSON(w, r.reg, p.Cycle()) })
	}
	if r.tr != nil {
		export(&res.chrome, func(w io.Writer) error { return tracing.WriteChrome(w, r.tr) })
		export(&res.traceND, func(w io.Writer) error { return tracing.WriteNDJSON(w, r.tr) })
	}
	return res, text.String()
}

// torus runs a short version of one benchmark torus shape on a 16x16
// torus: the benchmark's connection patterns, wheel sizes and loads,
// with fewer cycles.
func torus(shape string) func(*testing.T, mode) (pinResult, string) {
	return func(t *testing.T, m mode) (pinResult, string) {
		const side = 16
		params := core.DefaultParams()
		params.FastForward = m.ff
		var pairs [][4]int
		slotsFwd, rate := 1, 0.05
		switch shape {
		case "dense", "sparse":
			params.Wheel = 16
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					if shape == "dense" || (x == 0 && y%4 == 0) {
						pairs = append(pairs, [4]int{x, y, (x + 5) % side, (y + 3) % side})
					}
				}
			}
		case "duty":
			params.Wheel = 8
			slotsFwd, rate = 2, 0
			for y := 0; y < side; y++ {
				pairs = append(pairs, [4]int{0, y, side / 2, y})
			}
		}
		p, err := core.NewMeshPlatform(topology.MeshSpec{Width: side, Height: side, NIsPerRouter: 1, Wrap: true}, params, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := record(t, p, 0, m)
		var conns []*core.Connection
		for g := 0; g < len(pairs); g += side {
			first := len(conns)
			for _, pr := range pairs[g:min(g+side, len(pairs))] {
				c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(pr[0], pr[1], 0), Dst: p.Mesh.NI(pr[2], pr[3], 0), SlotsFwd: slotsFwd})
				if err != nil {
					t.Fatalf("open %v: %v", pr, err)
				}
				conns = append(conns, c)
			}
			for _, c := range conns[first:] {
				if err := p.AwaitOpen(c, 1_000_000); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, c := range conns {
			if rate > 0 {
				traffic.NewSource(p.Sim, fmt.Sprintf("pin-src-%d", i), p.NI(c.Spec.Src), c.SrcChannel,
					traffic.SourceConfig{Pattern: traffic.CBR, Rate: rate, Seed: 1 + uint64(i)})
			}
			r.sink(fmt.Sprintf("pin-sink-%d", i), c)
		}
		switch shape {
		case "dense":
			p.Run(600)
		case "sparse":
			p.Run(4000)
		case "duty":
			// Two rounds: a burst per row offered between steps, then a
			// long settled stretch that fast-forward skips.
			next := make([]uint64, len(conns))
			for round := 0; round < 2; round++ {
				start := p.Cycle()
				left := make([]int, len(conns))
				for i := range left {
					left[i] = 48
				}
				for pending := len(conns); pending > 0; {
					pending = 0
					for i, c := range conns {
						for left[i] > 0 && p.NI(c.Spec.Src).Send(c.SrcChannel, phit.Word(uint64(i)<<20|next[i])) {
							next[i]++
							left[i]--
						}
						if left[i] > 0 {
							pending++
						}
					}
					if pending > 0 {
						p.Run(16)
					}
				}
				p.Run(4000 - (p.Cycle() - start))
			}
		}
		return r.result(t)
	}
}

// soak is the seeded chaos soak: seeded opens with CBR sources on a
// square mesh, link faults, and a health monitor whose stalled
// connections are repaired every 512 cycles.
type soak struct {
	side, region int // mesh side; MaxRegionElements (0: the default)
	seed         uint64
	conns        int    // connections to open
	cycles       uint64 // soak length after the opens
	limit        uint64 // words per source; 0 = unbounded
	// targeted replaces two seeded link-downs with four faults on live
	// paths: the link leaving the first router of connection i's forward
	// path dies (i = 0, 1), and the entry that router reserved for
	// connection i loses its valid bit (i = 2, 3).
	targeted bool
	// teardown closes the lowest-ID connection halfway through; the
	// faults then all fall in the first half.
	teardown bool
	observe  observers
}

func (s soak) run(t *testing.T, m mode) (pinResult, string) {
	params := core.DefaultParams()
	params.MaxRegionElements, params.FastForward = s.region, m.ff
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: s.side, Height: s.side, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := record(t, p, s.observe, m)
	rng := sim.NewRNG(s.seed)
	var conns []*core.Connection
	for tries := 0; len(conns) < s.conns && tries < 100; tries++ {
		src := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		dst := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		if src == dst {
			continue
		}
		c, err := p.Open(core.ConnectionSpec{Src: src, Dst: dst, SlotsFwd: 1 + rng.Intn(2)})
		if err != nil {
			continue
		}
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			t.Fatal(err)
		}
		traffic.NewSource(p.Sim, fmt.Sprintf("src%d", c.ID), p.NI(src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.04 + 0.02*float64(rng.Intn(3)), Limit: s.limit, Seed: rng.Uint64()})
		r.sink(fmt.Sprintf("sink%d", c.ID), c)
		conns = append(conns, c)
	}

	var faults []fault.Fault
	if s.targeted {
		for i, c := range conns[:4] {
			l := p.Mesh.Link(c.Fwd.Paths[0].Path[1])
			if i < 2 {
				faults = append(faults, fault.Fault{Kind: fault.LinkDown, Link: l.ID})
				continue
			}
			slot := p.Router(l.From).Table().OccupiedMask(l.FromPort).Slots()[0]
			faults = append(faults, fault.Fault{Kind: fault.SlotTableFlip, Router: l.From, Out: l.FromPort, Slot: slot})
		}
	} else {
		for _, l := range fault.PickLinks(rng, fault.RouterLinks(p), 2) {
			faults = append(faults, fault.Fault{Kind: fault.LinkDown, Link: l})
		}
	}
	start, window := p.Cycle(), s.cycles
	if s.teardown {
		window /= 2
	}
	for i := range faults {
		faults[i].From = start + uint64(i+1)*window/uint64(len(faults)+1)
	}
	inj, err := fault.Attach(p, rng.Uint64(), faults...)
	if err != nil {
		t.Fatal(err)
	}
	if r.reg != nil {
		inj.AttachTelemetry(r.reg)
	}

	mon := core.NewHealthMonitor(p, 256)
	repairs, closed := 0, !s.teardown
	for end := start + s.cycles; p.Cycle() < end; {
		p.Run(min(512, end-p.Cycle()))
		if len(mon.Stalled()) > 0 {
			// A repair that finds no capacity left is a valid draw: it
			// still opens and closes its repair span.
			done, _ := p.RepairStalled(mon, 1_000_000)
			repairs += len(done)
		}
		if !closed && p.Cycle() >= start+window {
			closed = true
			var victim *core.Connection
			for _, c := range p.Connections() {
				if victim == nil || c.ID < victim.ID {
					victim = c
				}
			}
			if err := p.Close(victim); err != nil {
				t.Fatal(err)
			}
			if _, err := p.CompleteConfig(1_000_000); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, text := r.result(t)
	res.faults, res.repairs = inj.Counters(), repairs
	return res, text
}

// pack runs an example workload pack with telemetry and the tracer
// attached; the pack's own checkers must pass.
func pack(mk func() *workload.Spec) func(*testing.T, mode) (pinResult, string) {
	return func(t *testing.T, m mode) (pinResult, string) {
		wc, err := workload.Compile(mk())
		if err != nil {
			t.Fatal(err)
		}
		p, err := wc.BuildPlatform(m.ff)
		if err != nil {
			t.Fatal(err)
		}
		r := record(t, p, obsTelemetry|obsTracer, m)
		wr, err := workload.Run(wc, workload.RunOptions{Platform: p, Registry: r.reg})
		if err != nil {
			t.Fatal(err)
		}
		if !wr.Passed() {
			t.Fatalf("pack %s diverged from the model: violations=%d failures=%v", wr.Pack, wr.Violations, wr.Failures)
		}
		res, text := r.result(t)
		res.delivered, res.conns = wr.Delivered, wr.Fingerprint
		return res, text
	}
}

// A pin is one row: a scenario, whether it fast-forwards, what its
// exports must contain, and the constants it must reproduce.
type pin struct {
	name string
	run  func(t *testing.T, m mode) (pinResult, string)
	ff   bool
	must []string
	want pinResult
}

var (
	ffSoak        = soak{side: 4, seed: 42, conns: 5, cycles: 12_000, limit: 250, teardown: true, observe: obsTelemetry | obsStats | obsTracer}
	tinyTera      = pack(func() *workload.Spec { return workload.ExampleTinyTera("hotspot") })
	telemetryMust = []string{
		"daelite_ni_injected_words_total",
		"daelite_router_output_busy_cycles_total",
		"daelite_link_payload_cycles_total",
		"daelite_fault_flits_killed_total",
		`daelite_config_spans_total{op="setup"}`,
		`daelite_config_spans_total{op="repair"}`,
		`daelite_events_total{kind="stall"}`,
		`daelite_events_total{kind="repair"}`,
		`daelite_events_total{kind="fault"}`,
		`"record":"event"`,
	}
	packMust = []string{`daelite_config_spans_total{op="setup"}`, `daelite_config_spans_total{op="teardown"}`}
)

// pins is the table of recorded constants. sparse, dense, duty and chaos
// were recorded at the parent of the activity-driven kernel; since NIs
// stopped driving zero-credit slots only their carriers, duty's skipped
// cycles and the chaos FlitsKilled differ from that parent. On the
// sparse torus fewer than 10 % of the offered component-cycles are
// evaluated, set-up included.
var pins = []pin{
	{name: "sparse", run: torus("sparse"),
		want: pinResult{delivered: 792, conns: 0x3ddee85888c4ea85, payload: 0xee7950dd6f1b2cd5, credits: 0x4c167c9bf01a265d, carriers: 988, skipped: 0, evaluated: 51908, offered: 2254336, alloc: 0x48098c761fab70e8, cycles: 4352}},
	{name: "dense", run: torus("dense"),
		want: pinResult{delivered: 7088, conns: 0xbf241624211c38c5, payload: 0xc42e2c1b1bdf0d45, credits: 0x53302c21af1cb4b5, carriers: 8672, skipped: 0, evaluated: 264352, offered: 6957776, alloc: 0xcd1ce4dd5ec2a3f7, cycles: 13432}},
	{name: "duty", run: torus("duty"), ff: true,
		want: pinResult{delivered: 1536, conns: 0xc02572a923b6c8ea, payload: 0x5004f75999cd9a45, credits: 0x65bcae9553cde6a5, carriers: 832, skipped: 7903, evaluated: 46597, offered: 663558, alloc: 0xfb97e8cfe22ca1e8, cycles: 9184}},
	{name: "chaos", run: soak{side: 4, seed: 7, conns: 6, cycles: 10_000, targeted: true}.run,
		want: pinResult{delivered: 4006, conns: 0xc94a84f481181a64, payload: 0x5508386100cdda1c, credits: 0x03941671fb348828, carriers: 6974, skipped: 0, evaluated: 122734, offered: 343992, alloc: 0x6c3fa2d2119fc4e1, cycles: 10424, faults: fault.Counters{FlitsKilled: 64, TableFlips: 2}, repairs: 3}},
	{name: "soak/42", run: soak{side: 4, seed: 42, conns: 5, cycles: 12_000, observe: obsTelemetry | obsStats}.run, must: telemetryMust,
		want: pinResult{delivered: 3606, conns: 0x9a68c2e11ab730a7, payload: 0x073637621ce3aacc, credits: 0x3eff56f5a2231146, carriers: 6781, skipped: 0, evaluated: 129003, offered: 407682, alloc: 0xee19baf74de52e3b, cycles: 12354, faults: fault.Counters{FlitsKilled: 29}, repairs: 1, prom: 0x194afa067f5a5cb5, ndjson: 0x0d5c4fa9e5965cce}},
	{name: "soak/43", run: soak{side: 4, seed: 43, conns: 5, cycles: 12_000, observe: obsTelemetry | obsStats}.run,
		want: pinResult{delivered: 3772, conns: 0x43bf5f1268f214b7, payload: 0xa14ee8ce24d60498, credits: 0x1362b0a68329efef, carriers: 7110, skipped: 0, evaluated: 138005, offered: 408210, alloc: 0x03e6dc64e2fa61fe, cycles: 12370, faults: fault.Counters{FlitsKilled: 87}, repairs: 3, prom: 0xde8bf5716cfc9981, ndjson: 0x0220d2c4457cab63}},
	{name: "ffsoak", run: ffSoak.run, must: []string{"daelite_fault_flits_killed_total",
		`daelite_config_spans_total{op="setup"}`, `daelite_config_spans_total{op="teardown"}`, `daelite_events_total{kind="fault"}`},
		want: pinResult{delivered: 1225, conns: 0x8c7981436a50a714, payload: 0xec62dca7683764b0, credits: 0x34ae7f2ba03aeadf, carriers: 2338, skipped: 0, evaluated: 45410, offered: 407682, alloc: 0x33a3ff17294f337b, cycles: 12354, faults: fault.Counters{FlitsKilled: 25}, repairs: 1, prom: 0xcb81d976dab648dd, ndjson: 0x1389dbacbb39ed22, chrome: 0x3fa819e54f533f89, traceND: 0xdb9737eed8ce0578}},
	{name: "ffsoak+ff", run: ffSoak.run, ff: true,
		want: pinResult{delivered: 1225, conns: 0x8c7981436a50a714, payload: 0xec62dca7683764b0, credits: 0x34ae7f2ba03aeadf, carriers: 2338, skipped: 5907, evaluated: 45410, offered: 212751, alloc: 0x33a3ff17294f337b, cycles: 12354, faults: fault.Counters{FlitsKilled: 25}, repairs: 1, prom: 0xcb81d976dab648dd, ndjson: 0x1389dbacbb39ed22, chrome: 0x3fa819e54f533f89, traceND: 0xdb9737eed8ce0578}},
	{name: "regions6x6", run: soak{side: 6, region: 24, seed: 42, conns: 5, cycles: 12_000, teardown: true, observe: obsTracer}.run, must: []string{
		`"setup #`, `"inject r0"`, `"inject r1"`, `"settle"`, `"teardown #`, `"repair #`, `"stall"`, `"fault"`, `"record":"trace_event"`},
		want: pinResult{delivered: 3274, conns: 0x8f4b748c049a289a, payload: 0x3bb4b7ce2547fc08, credits: 0xfa917c8bdd7a52aa, carriers: 6054, skipped: 0, evaluated: 190626, offered: 928950, alloc: 0x665b4359366512f2, cycles: 12386, faults: fault.Counters{FlitsKilled: 64}, repairs: 1, chrome: 0x80a9ff07aafe1aff, traceND: 0x6a8f2e9578e42e86}},
	{name: "dnn", run: pack(workload.ExampleDNN), must: packMust,
		want: pinResult{delivered: 946, conns: 0xd397481c9537a942, payload: 0xbf38948aca2a516b, credits: 0x0195b21cf995f9de, carriers: 178, skipped: 0, evaluated: 31117, offered: 517803, alloc: 0xd1bcf6dd17f7ac8d, cycles: 15691, prom: 0x05bf6188f968fe6e, ndjson: 0xc7dbfe25a1322aa9, chrome: 0xc90d2f467b237c9f, traceND: 0xe5875b087a1f2543}},
	{name: "dnn+ff", run: pack(workload.ExampleDNN), ff: true,
		want: pinResult{delivered: 946, conns: 0xd397481c9537a942, payload: 0xbf38948aca2a516b, credits: 0x0195b21cf995f9de, carriers: 178, skipped: 6442, evaluated: 31117, offered: 305217, alloc: 0xd1bcf6dd17f7ac8d, cycles: 15691, prom: 0x05bf6188f968fe6e, ndjson: 0xc7dbfe25a1322aa9, chrome: 0xc90d2f467b237c9f, traceND: 0xe5875b087a1f2543}},
	{name: "tinytera", run: tinyTera, must: packMust,
		want: pinResult{delivered: 4608, conns: 0x24273149fb724383, payload: 0x271df65a77dbf3a1, credits: 0x869af913b6679fe5, carriers: 4616, skipped: 0, evaluated: 76339, offered: 463782, alloc: 0xd1bcf6dd17f7ac8d, cycles: 14054, prom: 0xec08fad234ac2a40, ndjson: 0x9219fc56cd80eb9d, chrome: 0x164cbdfa0adddc6c, traceND: 0xf9eb73d5a528873c}},
	{name: "tinytera+ff", run: tinyTera, ff: true,
		want: pinResult{delivered: 4608, conns: 0x24273149fb724383, payload: 0x271df65a77dbf3a1, credits: 0x869af913b6679fe5, carriers: 4616, skipped: 6839, evaluated: 76339, offered: 238095, alloc: 0xd1bcf6dd17f7ac8d, cycles: 14054, prom: 0xec08fad234ac2a40, ndjson: 0x9219fc56cd80eb9d, chrome: 0x164cbdfa0adddc6c, traceND: 0xf9eb73d5a528873c}},
}

func TestPins(t *testing.T) {
	got := runPins(t, pins, false)
	// Distinct scenarios must not collapse into one: no two rows other
	// than fast-forward siblings share a wire fold.
	seen := map[uint64]string{}
	for _, row := range pins {
		res, ok := got[row.name]
		if !ok || strings.HasSuffix(row.name, "+ff") {
			continue
		}
		if other, dup := seen[res.payload]; dup {
			t.Errorf("%s and %s share the wire fold %#016x", other, row.name, res.payload)
		}
		seen[res.payload] = row.name
	}
}

// The pair tests the table replaced keep their names as second runs of
// their rows against the same constants: after TestPins in one process,
// they catch state that leaks from one run into the next.
func TestKernelPinnedToParent(t *testing.T) {
	runPins(t, pinRows(t, "sparse", "dense", "duty", "chaos"), false)
}
func TestParallelChaosSoakDeterministic(t *testing.T) {
	runPins(t, pinRows(t, "soak/42", "soak/43"), false)
}
func TestTelemetryExportsDeterministic(t *testing.T) {
	runPins(t, pinRows(t, "ffsoak", "ffsoak+ff"), false)
}
func TestWorkloadExportsByteIdentical(t *testing.T) {
	runPins(t, pinRows(t, "dnn", "dnn+ff", "tinytera", "tinytera+ff"), false)
}

// pinRows returns the rows of pins with the given names.
func pinRows(t *testing.T, names ...string) []pin {
	var rows []pin
	for _, row := range pins {
		if slices.Contains(names, row.name) {
			rows = append(rows, row)
		}
	}
	if len(rows) != len(names) {
		t.Fatalf("pins has %d of the rows %v", len(rows), names)
	}
	return rows
}

// TestPinsAudited runs every row, each of which opens or closes
// connections, under the sleep-proof audit against the same constants:
// every component is evaluated every cycle, and a component the kernel
// would have left asleep may not write a register. It checks the sleep
// conditions of the router, the NI, the configuration module and the
// link pipeline on every scenario the pins cover.
func TestPinsAudited(t *testing.T) { runPins(t, pins, true) }

// runPins runs each row as a subtest, checks it against its constants,
// its must list and, for a +ff row, its accurate sibling, and returns
// what each row reproduced; audit runs the rows under the kernel's
// sleep-proof audit.
func runPins(t *testing.T, rows []pin, audit bool) map[string]pinResult {
	got := map[string]pinResult{}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			res, text := row.run(t, mode{ff: row.ff, audit: audit})
			got[row.name] = res
			if res != row.want {
				t.Errorf("recorded constants moved; replacement:\n\twant: %v},\nwas:\n\twant: %v},", res, row.want)
			}
			for _, m := range row.must {
				if !strings.Contains(text, m) {
					t.Errorf("exports lack %q: the scenario no longer exercises what its constants cover", m)
				}
			}
			base, isFF := strings.CutSuffix(row.name, "+ff")
			if !isFF {
				return
			}
			if res.skipped == 0 {
				t.Error("fast-forward never engaged")
			}
			ref, ok := got[base]
			res.skipped, res.evaluated, res.offered = ref.skipped, ref.evaluated, ref.offered
			if ok && res != ref {
				t.Errorf("differs from %s beyond skipped and evaluations:\n got %v\nwant %v", base, res, ref)
			}
		})
	}
	return got
}
