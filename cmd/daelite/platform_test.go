package main

import (
	"bufio"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daelite/internal/core"
	"daelite/internal/traffic"
)

func newFlags(t *testing.T, args ...string) *platformFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := registerPlatformFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkersFlagRejected: the kernel worker pool is gone, and a command
// line that still names its flag fails at parse instead of being ignored.
func TestWorkersFlagRejected(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerPlatformFlags(fs)
	err := fs.Parse([]string{"-mesh", "3x2", "-workers", "1"})
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("Parse(-workers 1) = %v, want an error naming the flag", err)
	}
}

func TestBuildMesh(t *testing.T) {
	f := newFlags(t, "-mesh", "3x2", "-wheel", "8")
	p, err := f.buildMesh()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mesh.Spec.Width != 3 || p.Mesh.Spec.Height != 2 {
		t.Fatalf("mesh = %dx%d", p.Mesh.Spec.Width, p.Mesh.Spec.Height)
	}
	if p.Params.Wheel != 8 {
		t.Fatalf("wheel = %d", p.Params.Wheel)
	}
	if _, err := newFlags(t, "-mesh", "nope").buildMesh(); err == nil {
		t.Fatal("bad mesh accepted")
	}
}

func TestExportersDisabled(t *testing.T) {
	f := newFlags(t)
	p, err := f.buildMesh()
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.startExporters(p)
	if err != nil {
		t.Fatal(err)
	}
	if e != nil {
		t.Fatal("exporters started without telemetry flags")
	}
	if e.metricsURL() != "" {
		t.Fatal("nil exporters produced a URL")
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	if p.Telemetry() != nil {
		t.Fatal("registry attached without telemetry flags")
	}
}

// TestExportersLive drives a small platform with the HTTP endpoint up,
// scrapes it mid-run, and checks the NDJSON snapshot lands on Close.
func TestExportersLive(t *testing.T) {
	out := filepath.Join(t.TempDir(), "telemetry.ndjson")
	f := newFlags(t, "-mesh", "2x2", "-metrics-addr", "127.0.0.1:0", "-telemetry-out", out)
	p, err := f.buildMesh()
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.startExporters(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Registry == nil || p.Telemetry() != e.Registry {
		t.Fatal("registry not attached to the platform")
	}

	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(1, 1, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 10000); err != nil {
		t.Fatal(err)
	}
	traffic.NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel,
		traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.2, Seed: 1})
	traffic.NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
	p.Run(2000)

	resp, err := http.Get(e.metricsURL())
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{"daelite_cycle", "daelite_ni_injected_words_total", "daelite_config_spans_total{op=\"setup\"}"} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}

	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	// The server must be down after Close.
	if _, err := http.Get(e.metricsURL()); err == nil {
		t.Fatal("metrics endpoint still up after Close")
	}
	// NDJSON snapshot: a meta line followed by one JSON object per line.
	nf, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	sc := bufio.NewScanner(nf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d is not a JSON object: %q", lines, line)
		}
		if lines == 0 && !strings.Contains(line, `"record":"meta"`) {
			t.Fatalf("first line is not the meta record: %q", line)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 10 {
		t.Fatalf("NDJSON snapshot suspiciously small: %d lines", lines)
	}
}
