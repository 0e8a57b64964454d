package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/traffic"
)

// TestScrapeDuringRepair hammers the Prometheus endpoint from several
// goroutines while the stepping goroutine detects a link failure and
// runs Platform.RepairStalled — the heaviest reconfiguration path the
// platform has. Under -race this proves the scrape handler only touches
// the harvest mirror, never live simulation state, so operators can
// leave dashboards polling while repairs are in flight.
func TestScrapeDuringRepair(t *testing.T) {
	f := newFlags(t, "-mesh", "3x3", "-metrics-addr", "127.0.0.1:0", "-telemetry-sample", "64")
	p, err := f.buildMesh()
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.startExporters(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(2, 0, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 1_000_000); err != nil {
		t.Fatal(err)
	}
	traffic.NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel,
		traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.1, Seed: 1})
	traffic.NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)

	victim := c.Fwd.Paths[0].Path[1] // router-to-router hop, repairable
	if _, err := fault.Attach(p, 1, fault.Fault{Kind: fault.LinkDown, Link: victim, From: p.Cycle() + 200}); err != nil {
		t.Fatal(err)
	}
	mon := core.NewHealthMonitor(p, 128)

	// Scrapers: poll until told to stop, counting successful reads.
	var stop atomic.Bool
	var scrapes atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Get(e.metricsURL())
				if err != nil {
					continue // server teardown race at the very end
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					scrapes.Add(1)
				}
			}
		}()
	}

	// Stepping goroutine: soak, detect the stall, repair around it —
	// all while the scrapers run.
	repaired := false
	for end := p.Cycle() + 6000; p.Cycle() < end; {
		p.Run(256)
		if len(mon.Stalled()) == 0 {
			continue
		}
		res, err := p.RepairStalled(mon, 1_000_000)
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		if len(res) > 0 && res[0].Conn != nil {
			repaired = true
		}
	}
	// On a fast machine the soak can finish before a scraper completes a
	// single request; keep the server up until at least one lands so the
	// success assertion below measures the handler, not the scheduler.
	for deadline := time.Now().Add(5 * time.Second); scrapes.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if !repaired {
		t.Fatal("link failure never repaired — the race window was not exercised")
	}
	if scrapes.Load() == 0 {
		t.Fatal("no successful scrapes during the run")
	}
}
