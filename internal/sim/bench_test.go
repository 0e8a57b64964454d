package sim

import "testing"

// BenchmarkKernelStep measures raw kernel throughput: N relay components
// shifting values through registers, the workload shape of a platform
// simulation.
func benchKernel(b *testing.B, n int) {
	s := New()
	regs := make([]*Reg[int], n+1)
	for i := range regs {
		regs[i] = NewReg(s, 0)
	}
	for i := 0; i < n; i++ {
		s.Add(&relay{label: "relay", src: regs[i], dst: regs[i+1]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// The 256- and 4096-relay sizes are the KernelStep* entries of
// experiments.Micro.
func BenchmarkKernelStep16(b *testing.B) { benchKernel(b, 16) }

// BenchmarkRegSetGet isolates the register primitive: a Set of a new
// value, its write-list entry and its latch.
func BenchmarkRegSetGet(b *testing.B) {
	s := New()
	r := NewReg(s, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Set(r.Get() + 1)
		s.Step()
	}
}
