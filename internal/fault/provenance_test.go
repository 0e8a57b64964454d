package fault

import (
	"math/bits"
	"testing"

	"daelite/internal/core"
	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// injection is what the oracle saw of one word at its source.
type injection struct {
	submit, inject uint64
	injected       bool
}

// oracle drives words seq = 0, 1, 2, ... into channel ch of n, one every
// other cycle while the NI accepts them, and records each word's
// provenance without the simulator's arena: the submit cycle when Send
// accepts it, and the inject cycle when a probe sees its payload on the
// NI's output wire (upstream of every fault, so the payload is the seq).
func oracle(t *testing.T, s *sim.Simulator, n *ni.NI, ch int) *[]injection {
	words := new([]injection)
	s.AddOrdered(&sim.Func{Label: "oracle-src", OnEval: func(cycle uint64) {
		if cycle%2 == 0 && n.Send(ch, phit.Word(len(*words))) {
			*words = append(*words, injection{submit: cycle})
		}
	}})
	out := n.OutputWire()
	s.AddProbe(func(cycle uint64) {
		if f := out.Get(); f.Valid {
			w := &(*words)[f.Data]
			if w.injected && w.inject != cycle {
				t.Fatalf("oracle: seq %d left its NI at cycles %d and %d", f.Data, w.inject, cycle)
			}
			w.inject, w.injected = cycle, true
		}
	})
	return words
}

// checkTag fails unless d's provenance is the oracle's record of the
// word: same seq, submit and inject cycles, and a payload that is the
// seq or the seq with one bit flipped. It reports whether it was flipped.
func checkTag(t *testing.T, words []injection, d ni.Delivery) (flipped bool) {
	t.Helper()
	if d.Tag.Seq >= uint64(len(words)) || !words[d.Tag.Seq].injected {
		t.Fatalf("delivery %+v carries seq %d, which never left the source", d, d.Tag.Seq)
	}
	w := words[d.Tag.Seq]
	if d.Tag.SubmitCycle != w.submit || d.Tag.InjectCycle != w.inject {
		t.Fatalf("seq %d: tag submit/inject %d/%d, oracle %d/%d",
			d.Tag.Seq, d.Tag.SubmitCycle, d.Tag.InjectCycle, w.submit, w.inject)
	}
	diff := uint64(d.Word) ^ d.Tag.Seq
	if bits.OnesCount64(diff) > 1 {
		t.Fatalf("seq %d delivered as %#x: not the seq's payload, flipped or not", d.Tag.Seq, uint32(d.Word))
	}
	return diff != 0
}

// TestProvenanceExactUnderFaults flips payload bits, then kills words
// mid-stream on a hop of a unicast connection, and checks every
// delivered word's Tag against an oracle that never reads the arena:
// flipped words keep their tags, and killed words leave a gap of their
// own seqs instead of shifting their tags onto later words.
func TestProvenanceExactUnderFaults(t *testing.T) {
	p := platform(t, 3, 3)
	src, dst := p.Mesh.NI(0, 0, 0), p.Mesh.NI(2, 1, 0)
	c := openConn(t, p, src, dst)
	hop := routerHop(t, p, c)
	from := p.Cycle() + 100
	inj, err := Attach(p, 5,
		Fault{Kind: PayloadFlip, Link: hop, From: from, To: from + 800, Prob: 0.3, Bit: -1},
		Fault{Kind: LinkDown, Link: hop, From: from + 1000, To: from + 1100},
	)
	if err != nil {
		t.Fatal(err)
	}
	words := oracle(t, p.Sim, p.NI(src), c.SrcChannel)
	var got []ni.Delivery
	sink := traffic.NewSink(p.Sim, "sink", p.NI(dst), c.DstChannel)
	sink.SetVerify(func(d ni.Delivery) error {
		got = append(got, d)
		return nil
	})
	p.Run(2000)

	flipped := 0
	seen := make(map[uint64]bool)
	for i, d := range got {
		if checkTag(t, *words, d) {
			flipped++
		}
		if i > 0 && d.Tag.Seq <= got[i-1].Tag.Seq {
			t.Fatalf("seq %d delivered after seq %d", d.Tag.Seq, got[i-1].Tag.Seq)
		}
		seen[d.Tag.Seq] = true
	}
	// The killed words are one run of seqs, injected within the
	// LinkDown window's length of each other.
	var missing []uint64
	last := got[len(got)-1].Tag.Seq
	for seq := uint64(0); seq < last; seq++ {
		if !seen[seq] {
			missing = append(missing, seq)
		}
	}
	cnt := inj.Counters()
	if flipped == 0 || cnt.PayloadFlips == 0 || len(missing) == 0 || cnt.FlitsKilled == 0 {
		t.Fatalf("faults did not bite: %d flipped deliveries, %d missing seqs, counters %+v", flipped, len(missing), cnt)
	}
	if uint64(flipped) != cnt.PayloadFlips {
		t.Fatalf("%d deliveries flipped, %d payload flips injected", flipped, cnt.PayloadFlips)
	}
	first, end := missing[0], missing[len(missing)-1]
	if end-first+1 != uint64(len(missing)) {
		t.Fatalf("missing seqs %v are not one run", missing)
	}
	t.Logf("%d delivered, %d of them flipped; seqs %d..%d killed", len(got), flipped, first, end)
	if span := (*words)[end].inject - (*words)[first].inject; span >= 100 {
		t.Fatalf("missing seqs %d..%d were injected %d cycles apart, beyond the 100-cycle LinkDown", first, end, span)
	}
}

// TestProvenanceMulticastAgrees checks that every destination of a
// multicast connection resolves the same word to the same, oracle-exact
// Tag.
func TestProvenanceMulticastAgrees(t *testing.T) {
	p := platform(t, 3, 3)
	dsts := []topology.NodeID{p.Mesh.NI(2, 0, 0), p.Mesh.NI(1, 2, 0), p.Mesh.NI(2, 2, 0)}
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dsts: dsts, SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 10000); err != nil {
		t.Fatal(err)
	}
	words := oracle(t, p.Sim, p.NI(c.Spec.Src), c.SrcChannel)
	tags := make([]map[uint64]phit.Tag, len(dsts))
	for i, d := range dsts {
		tags[i] = make(map[uint64]phit.Tag)
		m := tags[i]
		traffic.NewSink(p.Sim, p.Mesh.Node(d).Name, p.NI(d), c.DstChannels[d]).SetVerify(func(d ni.Delivery) error {
			if checkTag(t, *words, d) {
				t.Fatalf("seq %d flipped on a fault-free platform", d.Tag.Seq)
			}
			m[d.Tag.Seq] = d.Tag
			return nil
		})
	}
	p.Run(1000)
	if len(tags[0]) < 100 {
		t.Fatalf("only %d words reached %s", len(tags[0]), p.Mesh.Node(dsts[0]).Name)
	}
	for seq, want := range tags[0] {
		for i := 1; i < len(dsts); i++ {
			if got, ok := tags[i][seq]; ok && got != want {
				t.Fatalf("seq %d: %s resolved %+v, %s resolved %+v",
					seq, p.Mesh.Node(dsts[0]).Name, want, p.Mesh.Node(dsts[i]).Name, got)
			}
		}
	}
	for i := 1; i < len(dsts); i++ {
		if n := len(tags[i]); n+4 < len(tags[0]) || n > len(tags[0])+4 {
			t.Fatalf("%s received %d words, %s %d", p.Mesh.Node(dsts[i]).Name, n, p.Mesh.Node(dsts[0]).Name, len(tags[0]))
		}
	}
}
