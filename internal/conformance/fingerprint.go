package conformance

import (
	"daelite/internal/core"
	"daelite/internal/sim"
)

// WireFingerprint installs a determinism probe on p: every valid flit
// leaving any NI is folded, data then cycle, into the returned
// fingerprint in Mesh.AllNIs order. Two runs agree on it exactly when
// they put the same words on the same NI output wires at the same
// cycles. Attach before any traffic runs; the fold grows as the
// simulator steps.
func WireFingerprint(p *core.Platform) *sim.Fingerprint {
	fp := new(sim.Fingerprint)
	for _, id := range p.Mesh.AllNIs {
		w := p.NI(id).OutputWire()
		p.Sim.AddProbe(func(cycle uint64) {
			if f := w.Get(); f.Valid {
				*fp = fp.Mix(uint64(f.Data)).Mix(cycle)
			}
		})
	}
	return fp
}
