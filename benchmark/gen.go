package main

// Seeded input generation. Every input a workload feeds the system —
// payload words, the churn op stream, the admission request stream — is
// produced here from the run's seed before any timer starts. The
// generator is the benchmark's own (splitmix64) so that a change to the
// repository's RNG cannot silently change the workloads.

type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x1234567} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fnv folds v into the running FNV-1a style hash h.
func fnv(h, v uint64) uint64 {
	if h == 0 {
		h = 0xcbf29ce484222325
	}
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

// payloadWord is the word connection conn carries at sequence number
// seq under the run's seed; sinks recompute it to verify deliveries.
func payloadWord(seed uint64, conn int, seq uint64) uint32 {
	z := seed ^ (uint64(conn)+1)*0x9E3779B97F4A7C15 ^ seq*0xD1B54A32D192ED03
	z = (z ^ (z >> 29)) * 0xBF58476D1CE4E5B9
	return uint32(z ^ (z >> 32))
}

// xy is a mesh coordinate.
type xy struct{ X, Y int }

// churnOp is one step of the connection churn stream: open connection
// ID, or close it.
type churnOp struct {
	Open  bool
	ID    int
	Src   xy
	Dsts  []xy // one destination: unicast; several: multicast
	Slots int
}

// churnStream generates opens over a w x h mesh with their matching
// closes: 80 % unicast with 1-3 slots, 20 % multicast to 2-4
// destinations with 1-2 slots. Each connection is closed after a
// lifetime of 12-36 further opens, so about 24 are live in steady
// state. Closes of connections whose open was refused are skipped at
// run time. No endpoint is ever hole (see padNode).
func churnStream(seed uint64, w, h, opens int, hole xy) []churnOp {
	r := newRNG(seed ^ 0xC4021)
	pick := func() xy {
		for {
			if c := (xy{r.intn(w), r.intn(h)}); c != hole {
				return c
			}
		}
	}
	due := map[int][]int{}
	var ops []churnOp
	for i := 0; i < opens; i++ {
		op := churnOp{Open: true, ID: i, Src: pick()}
		n := 1
		if r.float() < 0.2 {
			n = r.between(2, 4)
			op.Slots = r.between(1, 2)
		} else {
			op.Slots = r.between(1, 3)
		}
		for len(op.Dsts) < n {
			d := pick()
			dup := d == op.Src
			for _, e := range op.Dsts {
				dup = dup || e == d
			}
			if !dup {
				op.Dsts = append(op.Dsts, d)
			}
		}
		ops = append(ops, op)
		at := i + r.between(12, 36)
		due[at] = append(due[at], i)
		for _, id := range due[i] {
			ops = append(ops, churnOp{ID: id})
		}
		delete(due, i)
	}
	return ops
}

func hashChurn(ops []churnOp) uint64 {
	var h uint64
	for _, op := range ops {
		h = fnv(h, uint64(op.ID)<<1|b2u(op.Open))
		h = fnv(h, uint64(op.Src.X)<<8|uint64(op.Src.Y))
		for _, d := range op.Dsts {
			h = fnv(h, uint64(d.X)<<8|uint64(d.Y))
		}
		h = fnv(h, uint64(op.Slots))
	}
	return h
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Admission request kinds.
const (
	admUnicast = iota
	admMulticast
	admWhatIf
	admClose
)

// admDraw is one draw of a tenant's request stream, packed small
// because a run pre-generates a few hundred thousand of them. Every
// draw carries a complete open spec: a close drawn against an empty
// live set is served as that open, and an open drawn at the live-set
// cap is served as close-oldest, so the stream never contains a request
// that must fail.
type admDraw struct {
	Kind  uint8
	Slots uint8
	NDst  uint8
	Src   [2]uint8
	Dsts  [3][2]uint8
}

// admStream draws n requests for one tenant confined to columns
// [x0, x0+cols) of a mesh of height h: 45 % unicast open, 10 %
// multicast open (2-3 destinations), 10 % what-if, 35 % close-oldest.
func admStream(seed uint64, x0, cols, h, n int) []admDraw {
	r := newRNG(seed ^ 0xAD3D ^ uint64(x0)<<20)
	pick := func() [2]uint8 { return [2]uint8{uint8(x0 + r.intn(cols)), uint8(r.intn(h))} }
	out := make([]admDraw, n)
	for i := range out {
		d := admDraw{Src: pick(), Slots: uint8(r.between(1, 2))}
		u := r.float()
		dsts := 1
		switch {
		case u < 0.45:
			d.Kind = admUnicast
		case u < 0.55:
			d.Kind = admMulticast
			dsts = r.between(2, 3)
		case u < 0.65:
			d.Kind = admWhatIf
		default:
			d.Kind = admClose
		}
		for int(d.NDst) < dsts {
			c := pick()
			dup := c == d.Src
			for _, e := range d.Dsts[:d.NDst] {
				dup = dup || e == c
			}
			if !dup {
				d.Dsts[d.NDst] = c
				d.NDst++
			}
		}
		out[i] = d
	}
	return out
}

func hashAdm(ds []admDraw) uint64 {
	var h uint64
	for _, d := range ds {
		h = fnv(h, uint64(d.Kind)<<8|uint64(d.Slots))
		h = fnv(h, uint64(d.Src[0])<<8|uint64(d.Src[1]))
		for _, c := range d.Dsts[:d.NDst] {
			h = fnv(h, uint64(c[0])<<8|uint64(c[1]))
		}
	}
	return h
}
