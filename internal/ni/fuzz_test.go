package ni

import (
	"testing"

	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// midCycle is an ordered component: it runs the calls queued for it
// after the NIs' Eval of the next cycle, as a traffic endpoint would.
type midCycle struct{ calls []func() }

func (m *midCycle) Name() string { return "mid-cycle" }
func (m *midCycle) Eval(uint64) {
	for _, f := range m.calls {
		f()
	}
	m.calls = m.calls[:0]
}

// drain is an IP-side consumer of channels 0 and 1 that sleeps while
// their receive queues are empty and is woken only by the NI
// (WatchRecv), as a traffic sink is: each Eval takes every visible word.
type drain struct {
	ni   *NI
	act  sim.Activity
	take func(ch int, d Delivery, cycle uint64)
}

func (d *drain) Name() string { return "drain" }
func (d *drain) Eval(cycle uint64) {
	for ch := range fuzzChannels {
		for {
			dv, ok := d.ni.Recv(ch)
			if !ok {
				break
			}
			d.take(ch, dv, cycle)
		}
	}
	d.act.Sleep()
}

// fuzzChannels is the number of channels FuzzNIQueues runs from A to B.
const fuzzChannels = 2

// refWord is a word of the reference queues, with the step count at its
// Send (it may be injected two steps later at the earliest) and, once
// received, its delivery cycle.
type refWord struct {
	word               phit.Word
	seq, submit, cycle uint64
	sentAt             int
}

// refChannel is the reference of one channel from A to B: its send
// queue, the words on the link, its receive queue, the words B's IP took
// since the last step, its open flag and sequence number, and A's and
// B's progress counters as last seen.
type refChannel struct {
	sendQ, link, recvQ []refWord
	taken              int
	open               bool
	seq                uint64
	txSeen, rxSeen     uint64
}

// FuzzNIQueues checks the send and receive queues of channels 0 and 1
// from NI A to NI B against slices. Depths (1..8 and 1..16), slot masks
// on a wheel of 8 (channel 1 takes the slots channel 0 leaves), the
// initial credit and the multicast flag are fuzzed. Each op byte is a
// Send on A or a Recv on B — on channel 1 with bit 3 set, made between
// steps or, with bit 2 set, mid-cycle after the NIs' Eval — a run of
// steps, or a toggle of A's open flag (channel 1 with bit 3). So one
// cycle can carry IP-side calls on both channels, each of which the NI
// must commit. The reference follows the datapath's events: an
// injection (A's TxWords) moves its channel's send head onto the link,
// and an arrival (B's RxWords plus Dropped, on the channel B's table
// receives in that slot) is kept or dropped by the reference's own
// capacity check. CanSend, SendQueueLen, RecvLen, Rejected, Dropped and
// every delivered word, tag and cycle must agree. With consumer set, B's
// IP side is also a drain registered after the mid-cycle calls: it must
// take every word in the cycle the word becomes visible, so no word
// waits past that cycle.
func FuzzNIQueues(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(0x22), uint8(0x81), uint8(6), false, false,
		[]byte{0, 0, 0, 0, 0, 2 | 20<<2, 1, 1, 5, 5, 4, 2 | 30<<2, 1, 1, 1, 1, 0, 4, 2 | 63<<2, 1, 5, 1})
	f.Add(uint8(0), uint8(1), uint8(0xFF), uint8(0x0F), uint8(0), true, false,
		[]byte{0, 0, 0, 2 | 10<<2, 0, 4, 4, 2 | 40<<2, 1, 5, 1, 2 | 5<<2})
	f.Add(uint8(1), uint8(0), uint8(0x55), uint8(0xAA), uint8(1), false, false,
		[]byte{0, 0, 2 | 3<<2, 1, 0, 3, 0, 2 | 8<<2, 3, 0, 0, 2 | 16<<2, 5, 1, 1, 2 | 2<<2})
	f.Add(uint8(7), uint8(15), uint8(0x01), uint8(0x10), uint8(63), true, false,
		[]byte{0, 4, 0, 4, 0, 4, 0, 4, 2 | 63<<2, 2 | 63<<2, 1, 1, 1, 5, 5, 5, 2 | 1<<2, 1})
	f.Add(uint8(3), uint8(5), uint8(0x22), uint8(0x81), uint8(6), false, true,
		[]byte{0, 0, 0, 0, 0, 2 | 20<<2, 1, 0, 5, 0, 4, 2 | 30<<2, 1, 0, 0, 0, 4, 4, 2 | 63<<2, 1, 5, 2 | 8<<2})
	f.Add(uint8(7), uint8(2), uint8(0xFF), uint8(0xFF), uint8(3), true, true,
		[]byte{0, 4, 0, 4, 0, 4, 2 | 9<<2, 0, 0, 0, 0, 2 | 3<<2, 3, 0, 3, 0, 2 | 20<<2})
	// Both channels in the same cycles: mid-cycle Sends on channels 0
	// and 1, then mid-cycle Recvs on both, and a channel-1 close and
	// reopen between them.
	f.Add(uint8(3), uint8(3), uint8(0x33), uint8(0x0F), uint8(5), false, false,
		[]byte{4, 12, 4, 12, 2, 0, 8, 2 | 12<<2, 5, 13, 2, 5, 13, 2, 11, 8, 11, 12, 4, 2 | 20<<2, 5, 13, 1, 9, 2 | 2<<2})
	f.Add(uint8(2), uint8(1), uint8(0x5A), uint8(0x3C), uint8(2), false, true,
		[]byte{4, 12, 2, 4, 12, 2 | 30<<2, 0, 8, 4, 12, 2 | 40<<2})
	// One Send on each channel in the same cycle, and nothing after it;
	// then a Recv on each in the same cycle, and nothing after it.
	f.Add(uint8(3), uint8(3), uint8(0x0F), uint8(0x33), uint8(4), false, false,
		[]byte{4, 12, 2})
	f.Add(uint8(3), uint8(3), uint8(0x0F), uint8(0x33), uint8(4), false, false,
		[]byte{0, 2, 8, 2 | 31<<2, 5, 13, 2})
	f.Fuzz(func(t *testing.T, sdepth, rdepth, txA, txB, credit uint8, multicast, consumer bool, ops []byte) {
		p := Params{Wheel: 8, SlotWords: 2, NumChannels: fuzzChannels,
			SendQueueDepth: 1 + int(sdepth%8), RecvQueueDepth: 1 + int(rdepth%16)}
		s, a, b := pair(t, p)
		cr := int(credit % (phit.MaxCreditValue + 1))
		armChannel(t, a, b, 0, slots.Mask{Bits: uint64(txA), Size: 8}, slots.Mask{Bits: uint64(txB), Size: 8}, cr, multicast)
		armChannel(t, a, b, 1, slots.Mask{Bits: uint64(^txA), Size: 8}, slots.Mask{Bits: uint64(^txB), Size: 8}, cr, multicast)
		mid := &midCycle{}
		s.AddOrdered(mid)

		var (
			ref               [fuzzChannels]refChannel
			rejected, dropped uint64
			steps             int
			arrSeen           uint64
		)
		for c := range ref {
			ref[c].open = true
		}
		check := func(where string, midCycle bool) {
			t.Helper()
			for c := range ref {
				r := &ref[c]
				if got, want := a.CanSend(c), len(r.sendQ) < p.SendQueueDepth; got != want {
					t.Fatalf("%s: channel %d: CanSend = %v, reference %v", where, c, got, want)
				}
				if got := a.SendQueueLen(c); got != len(r.sendQ) {
					t.Fatalf("%s: channel %d: SendQueueLen = %d, reference %d", where, c, got, len(r.sendQ))
				}
				if got := b.RecvLen(c); got != len(r.recvQ) {
					t.Fatalf("%s: channel %d: RecvLen = %d, reference %d", where, c, got, len(r.recvQ))
				}
			}
			if a.Rejected() != rejected {
				t.Fatalf("%s: Rejected = %d, reference %d", where, a.Rejected(), rejected)
			}
			// Mid-cycle, B's Eval may already have counted a drop the
			// reference learns of after the step.
			if !midCycle && b.Dropped() != dropped {
				t.Fatalf("%s: Dropped = %d, reference %d", where, b.Dropped(), dropped)
			}
		}
		// took checks a word B's IP took from channel c against the head
		// of the reference's receive queue and pops it.
		took := func(c int, d Delivery, who string) {
			t.Helper()
			r := &ref[c]
			if len(r.recvQ) == 0 {
				t.Fatalf("step %d: %s took %+v on channel %d with the reference empty", steps, who, d, c)
			}
			w := r.recvQ[0]
			if d.Word != w.word || d.Tag.Seq != w.seq || d.Tag.Channel != a.ID()<<8|c ||
				d.Tag.SubmitCycle != w.submit || d.Cycle != w.cycle {
				t.Fatalf("step %d: %s took %+v on channel %d, reference %+v", steps, who, d, c, w)
			}
			r.recvQ = r.recvQ[1:]
			r.taken++
		}
		send := func(c int, w phit.Word, midCycle bool) {
			r := &ref[c]
			ok := a.Send(c, w)
			if want := r.open && len(r.sendQ) < p.SendQueueDepth; ok != want {
				t.Fatalf("step %d: Send(%d) = %v, reference %v", steps, c, ok, want)
			}
			if ok {
				r.sendQ = append(r.sendQ, refWord{word: w, seq: r.seq, submit: s.EvalCycle(), sentAt: steps})
				r.seq++
			} else {
				rejected++
			}
			check("after Send", midCycle)
		}
		recv := func(c int, midCycle bool) {
			d, ok := b.Recv(c)
			if ok != (len(ref[c].recvQ) > 0) {
				t.Fatalf("step %d: Recv(%d) = %v with %d words in the reference", steps, c, ok, len(ref[c].recvQ))
			}
			if ok {
				took(c, d, "Recv")
			}
			check("after Recv", midCycle)
		}
		if consumer {
			ip := &drain{ni: b, take: func(c int, d Delivery, cycle uint64) {
				took(c, d, "drain")
				if d.Cycle != cycle {
					t.Fatalf("step %d: drain took at cycle %d a word visible since cycle %d", steps, cycle, d.Cycle)
				}
				check("after drain", true)
			}}
			ip.act = s.AddOrdered(ip)
			for c := range fuzzChannels {
				b.WatchRecv(c, ip.act)
			}
		}
		step := func() {
			s.Step()
			steps++
			arr := b.Dropped()
			for c := range ref {
				arr += b.RxWords(c)
			}
			if arr != arrSeen {
				// The word arrived in the slot the cycle just stepped
				// receives (see NI.Eval's receive path).
				c := b.Table().Entry(slots.SlotOfCycle(s.Cycle(), p.SlotWords, p.Wheel)).RX
				if arr != arrSeen+1 || c < 0 || c >= fuzzChannels || len(ref[c].link) == 0 {
					t.Fatalf("step %d: %d arrivals on channel %d", steps, arr-arrSeen, c)
				}
				arrSeen = arr
				r := &ref[c]
				w := r.link[0]
				r.link = r.link[1:]
				if len(r.recvQ)+r.taken < p.RecvQueueDepth {
					w.cycle = s.Cycle()
					r.recvQ = append(r.recvQ, w)
				} else {
					dropped++
				}
			}
			for c := range ref {
				r := &ref[c]
				r.taken = 0
				if tx := a.TxWords(c); tx != r.txSeen {
					if tx != r.txSeen+1 || len(r.sendQ) == 0 {
						t.Fatalf("step %d: %d injections on channel %d with %d words queued", steps, tx-r.txSeen, c, len(r.sendQ))
					}
					r.txSeen = tx
					w := r.sendQ[0]
					if steps < w.sentAt+2 {
						t.Fatalf("step %d: word sent at step %d injected before its Commit", steps, w.sentAt)
					}
					if f := a.OutputWire().Get(); !f.Valid || f.Data != w.word {
						t.Fatalf("step %d: wire carries %+v, channel %d's reference head %#x", steps, f, c, w.word)
					}
					r.sendQ = r.sendQ[1:]
					r.link = append(r.link, w)
				}
				if consumer && len(r.recvQ) > 0 && r.recvQ[0].cycle < s.Cycle() {
					t.Fatalf("step %d: a word visible on channel %d since cycle %d was not drained", steps, c, r.recvQ[0].cycle)
				}
			}
			check("after step", false)
		}

		for i, op := range ops {
			midCycle := op&4 != 0
			c := int(op>>3) & 1
			switch op & 3 {
			case 0:
				w := phit.Word(uint32(i)<<8 | uint32(op))
				if midCycle {
					mid.calls = append(mid.calls, func() { send(c, w, true) })
				} else {
					send(c, w, false)
				}
			case 1:
				if midCycle {
					mid.calls = append(mid.calls, func() { recv(c, true) })
				} else {
					recv(c, false)
				}
			case 2:
				for range 1 + int(op>>2) {
					step()
				}
			case 3:
				r := &ref[c]
				r.open = !r.open
				var flags uint8
				if r.open {
					flags = cfgproto.FlagOpen
					if multicast {
						flags |= cfgproto.FlagMulticast
					}
				}
				(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, c), flags)
			}
		}
		if len(mid.calls) > 0 {
			step()
		}

		// Liveness: the IP drains B for 3 wheels per queued word (a
		// credit's round trip takes at most that), and then every word
		// A could send on an open channel has gone, and without
		// multicast or drops every credit is back at A. A call whose
		// Commit never ran shows here, as a word that never became
		// visible or a credit that never returned.
		for range 3 * (p.SendQueueDepth + 1) * p.Wheel * p.SlotWords {
			for c := range ref {
				for b.RecvLen(c) > 0 {
					recv(c, false)
				}
			}
			step()
		}
		for c := range ref {
			r := &ref[c]
			txA, txB := txA, txB
			if c == 1 {
				txA, txB = ^txA, ^txB
			}
			if r.open && txA != 0 && (multicast || cr > 0 && txB != 0 && dropped == 0) && len(r.sendQ) > 0 {
				t.Fatalf("channel %d: %d words never left A", c, len(r.sendQ))
			}
			if !multicast && txB != 0 && dropped == 0 && (a.Credit(c) != cr || b.DeliveredCredits(c) != 0) {
				t.Fatalf("channel %d: credit %d at A and %d unreturned at B, want %d and 0", c, a.Credit(c), b.DeliveredCredits(c), cr)
			}
		}
	})
}
