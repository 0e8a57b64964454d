//go:build !race

// Race instrumentation allocates on its own, so this file builds only
// without -race.

package daelite

import (
	"fmt"
	"testing"
)

// TestSteadyStateAllocFree pins that a loaded platform runs without
// allocating once warmed up: the NI queues are fixed rings at hardware
// depth and the sinks' latency recorders grow only on a new maximum. The
// shapes are the benchmark's 16x16 torus at wheel 16 with CBR sources
// and verifying sinks: every NI streaming (the permutation (x,y) ->
// (x+5,y+3)), and four of those connections alone.
func TestSteadyStateAllocFree(t *testing.T) {
	const side = 16
	dense := func(x, y int) bool { return true }
	sparse := func(x, y int) bool { return x == 0 && y%4 == 0 }
	for _, tc := range []struct {
		name string
		keep func(x, y int) bool
	}{{"dense", dense}, {"sparse", sparse}} {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			params.Wheel = 16
			p, err := NewMeshPlatform(MeshSpec{Width: side, Height: side, NIsPerRouter: 1, Wrap: true}, params, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var conns []*Connection
			for y := 0; y < side; y++ {
				// The configuration module's staging queue holds a
				// row's worth of opens.
				first := len(conns)
				for x := 0; x < side; x++ {
					if !tc.keep(x, y) {
						continue
					}
					c, err := p.Open(ConnectionSpec{
						Src: p.Mesh.NI(x, y, 0), Dst: p.Mesh.NI((x+5)%side, (y+3)%side, 0), SlotsFwd: 1,
					})
					if err != nil {
						t.Fatalf("open (%d,%d): %v", x, y, err)
					}
					conns = append(conns, c)
				}
				for _, c := range conns[first:] {
					if err := p.AwaitOpen(c, 1_000_000); err != nil {
						t.Fatal(err)
					}
				}
			}
			var sinks []*Sink
			for i, c := range conns {
				NewSource(p, fmt.Sprintf("src-%d", i), c.Spec.Src, c.SrcChannel,
					SourceConfig{Pattern: CBR, Rate: 0.05, Seed: uint64(i)})
				k := NewSink(p, fmt.Sprintf("sink-%d", i), c.Spec.Dst, c.DstChannel)
				k.SetVerify(func(d Delivery) error {
					if d.Word != Word(d.Tag.Seq) {
						return fmt.Errorf("word %#x carries seq %d", d.Word, d.Tag.Seq)
					}
					return nil
				})
				sinks = append(sinks, k)
			}
			p.Run(2_000)
			if allocs := testing.AllocsPerRun(20, func() { p.Run(100) }); allocs != 0 {
				t.Errorf("Platform.Run(100) allocates %v objects in steady state, want 0", allocs)
			}
			var received uint64
			for _, k := range sinks {
				if err := k.VerifyErr(); err != nil {
					t.Fatal(err)
				}
				received += k.Received()
			}
			if received == 0 {
				t.Fatal("no word delivered")
			}
		})
	}
}
