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
func (m *midCycle) Commit() {}

// drain is an IP-side consumer of one channel that sleeps while the
// receive queue is empty and is woken only by the NI (WatchRecv), as a
// traffic sink is: each Eval takes every visible word.
type drain struct {
	ni   *NI
	act  sim.Activity
	take func(d Delivery, cycle uint64)
}

func (d *drain) Name() string { return "drain" }
func (d *drain) Eval(cycle uint64) {
	for {
		dv, ok := d.ni.Recv(0)
		if !ok {
			break
		}
		d.take(dv, cycle)
	}
	d.act.Sleep()
}
func (d *drain) Commit() {}

// refWord is a word of the reference queues, with the step count at its
// Send (it may be injected two steps later at the earliest) and, once
// received, its delivery cycle.
type refWord struct {
	word               phit.Word
	seq, submit, cycle uint64
	sentAt             int
}

// FuzzNIQueues checks the send and receive queues of channel 0 from NI A
// to NI B against slices. Depths (1..8 and 1..16), slot masks on a wheel
// of 8, the initial credit and the multicast flag are fuzzed. Each op
// byte is a Send on A or a Recv on B — made between steps or, with bit 2
// set, mid-cycle after the NIs' Eval — a run of steps, or a toggle of
// A's open flag. The reference follows the datapath's events: an
// injection (A's TxWords) moves its send head onto the link, and an
// arrival (B's RxWords plus Dropped) is kept or dropped by the
// reference's own capacity check. CanSend, SendQueueLen, RecvLen,
// Rejected, Dropped and every delivered word, tag and cycle must agree.
// With consumer set, B's IP side is also a drain registered after the
// mid-cycle calls: it must take every word in the cycle the word becomes
// visible, so no word waits past that cycle.
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
	f.Fuzz(func(t *testing.T, sdepth, rdepth, txA, txB, credit uint8, multicast, consumer bool, ops []byte) {
		p := Params{Wheel: 8, SlotWords: 2, NumChannels: 2,
			SendQueueDepth: 1 + int(sdepth%8), RecvQueueDepth: 1 + int(rdepth%16)}
		s, a, b := pair(t, p)
		arm(t, a, b, slots.Mask{Bits: uint64(txA), Size: 8}, slots.Mask{Bits: uint64(txB), Size: 8},
			int(credit%(phit.MaxCreditValue+1)), multicast)
		mid := &midCycle{}
		s.AddOrdered(mid)

		var (
			sendQ, link, recvQ []refWord
			taken              int // words B's IP took since the last step
			open               = true
			seq                uint64
			rejected, dropped  uint64
			steps              int
			txSeen, arrSeen    uint64
		)
		check := func(where string, midCycle bool) {
			t.Helper()
			if got, want := a.CanSend(0), len(sendQ) < p.SendQueueDepth; got != want {
				t.Fatalf("%s: CanSend = %v, reference %v", where, got, want)
			}
			if got := a.SendQueueLen(0); got != len(sendQ) {
				t.Fatalf("%s: SendQueueLen = %d, reference %d", where, got, len(sendQ))
			}
			if got := b.RecvLen(0); got != len(recvQ) {
				t.Fatalf("%s: RecvLen = %d, reference %d", where, got, len(recvQ))
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
		send := func(w phit.Word, midCycle bool) {
			ok := a.Send(0, w)
			if want := open && len(sendQ) < p.SendQueueDepth; ok != want {
				t.Fatalf("step %d: Send = %v, reference %v", steps, ok, want)
			}
			if ok {
				sendQ = append(sendQ, refWord{word: w, seq: seq, submit: s.EvalCycle(), sentAt: steps})
				seq++
			} else {
				rejected++
			}
			check("after Send", midCycle)
		}
		recv := func(midCycle bool) {
			d, ok := b.Recv(0)
			if ok != (len(recvQ) > 0) {
				t.Fatalf("step %d: Recv = %v with %d words in the reference", steps, ok, len(recvQ))
			}
			if ok {
				r := recvQ[0]
				if d.Word != r.word || d.Tag.Seq != r.seq || d.Tag.Channel != a.ID()<<8 ||
					d.Tag.SubmitCycle != r.submit || d.Cycle != r.cycle {
					t.Fatalf("step %d: Recv = %+v, reference %+v", steps, d, r)
				}
				recvQ = recvQ[1:]
				taken++
			}
			check("after Recv", midCycle)
		}
		if consumer {
			ip := &drain{ni: b, take: func(d Delivery, cycle uint64) {
				if len(recvQ) == 0 {
					t.Fatalf("step %d: drain took %+v with the reference empty", steps, d)
				}
				r := recvQ[0]
				if d.Word != r.word || d.Tag.Seq != r.seq || d.Tag.Channel != a.ID()<<8 ||
					d.Tag.SubmitCycle != r.submit || d.Cycle != r.cycle {
					t.Fatalf("step %d: drain took %+v, reference %+v", steps, d, r)
				}
				if d.Cycle != cycle {
					t.Fatalf("step %d: drain took at cycle %d a word visible since cycle %d", steps, cycle, d.Cycle)
				}
				recvQ = recvQ[1:]
				taken++
				check("after drain", true)
			}}
			ip.act = s.AddOrdered(ip)
			b.WatchRecv(0, ip.act)
		}
		step := func() {
			s.Step()
			steps++
			if arr := b.RxWords(0) + b.Dropped(); arr != arrSeen {
				if arr != arrSeen+1 || len(link) == 0 {
					t.Fatalf("step %d: %d arrivals with %d words on the link", steps, arr-arrSeen, len(link))
				}
				arrSeen = arr
				w := link[0]
				link = link[1:]
				if len(recvQ)+taken < p.RecvQueueDepth {
					w.cycle = s.Cycle()
					recvQ = append(recvQ, w)
				} else {
					dropped++
				}
			}
			taken = 0
			if tx := a.TxWords(0); tx != txSeen {
				if tx != txSeen+1 || len(sendQ) == 0 {
					t.Fatalf("step %d: %d injections with %d words queued", steps, tx-txSeen, len(sendQ))
				}
				txSeen = tx
				w := sendQ[0]
				if steps < w.sentAt+2 {
					t.Fatalf("step %d: word sent at step %d injected before its Commit", steps, w.sentAt)
				}
				if f := a.OutputWire().Get(); !f.Valid || f.Data != w.word {
					t.Fatalf("step %d: wire carries %+v, reference head %#x", steps, f, w.word)
				}
				sendQ = sendQ[1:]
				link = append(link, w)
			}
			if consumer && len(recvQ) > 0 && recvQ[0].cycle < s.Cycle() {
				t.Fatalf("step %d: a word visible since cycle %d was not drained", steps, recvQ[0].cycle)
			}
			check("after step", false)
		}

		for i, op := range ops {
			midCycle := op&4 != 0
			switch op & 3 {
			case 0:
				w := phit.Word(uint32(i)<<8 | uint32(op))
				if midCycle {
					mid.calls = append(mid.calls, func() { send(w, true) })
				} else {
					send(w, false)
				}
			case 1:
				if midCycle {
					mid.calls = append(mid.calls, func() { recv(true) })
				} else {
					recv(false)
				}
			case 2:
				for range 1 + int(op>>2) {
					step()
				}
			case 3:
				open = !open
				var flags uint8
				if open {
					flags = cfgproto.FlagOpen
					if multicast {
						flags |= cfgproto.FlagMulticast
					}
				}
				(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), flags)
			}
		}
		if len(mid.calls) > 0 {
			step()
		}
	})
}
