package sim

// Fingerprint is an order-sensitive FNV-1a fold used to summarize a
// simulation run into one word: determinism checks hash every observed
// wire value (with its cycle) and compare the folds across repeated
// runs or execution modes — any divergence, however small, changes the
// fingerprint. The zero value is ready to use.
type Fingerprint uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Mix folds one 64-bit value into the fingerprint, byte by byte.
func (f Fingerprint) Mix(v uint64) Fingerprint {
	h := uint64(f)
	if h == 0 {
		h = fnvOffset
	}
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xFF
		h *= fnvPrime
	}
	return Fingerprint(h)
}

// Sum returns the current fold.
func (f Fingerprint) Sum() uint64 { return uint64(f) }
