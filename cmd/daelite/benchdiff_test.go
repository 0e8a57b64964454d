package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"daelite/internal/benchfmt"
)

func writeSnapshot(t *testing.T, dir, name string, cal float64, benches map[string]float64) string {
	t.Helper()
	f := &benchfmt.File{
		Rev:                name,
		GoVersion:          "go0.0",
		GOMAXPROCS:         1,
		CalibrationNsPerOp: cal,
		Benchmarks:         map[string]benchfmt.Entry{},
	}
	for b, ns := range benches {
		f.Benchmarks[b] = benchfmt.Entry{NsPerOp: ns}
	}
	path := filepath.Join(dir, name+".json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInjectedRegressionFailsRun is the acceptance check: feeding
// benchdiff a synthetic >20% regression in a gated benchmark must
// exit non-zero.
func TestInjectedRegressionFailsRun(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old", 100, map[string]float64{
		"BenchmarkPlatformCycle": 1000,
		"BenchmarkKernelStep256": 400,
		"E3":                     9e6,
	})
	new := writeSnapshot(t, dir, "new", 100, map[string]float64{
		"BenchmarkPlatformCycle": 1600, // injected 60% slowdown
		"BenchmarkKernelStep256": 410,
		"E3":                     9e6,
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"benchdiff", old, new}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(errOut.String(), "FAIL") {
		t.Fatalf("missing regression report\nstdout:\n%s\nstderr:\n%s", out.String(), errOut.String())
	}
}

func TestCleanComparisonPasses(t *testing.T) {
	dir := t.TempDir()
	// The new machine is uniformly 3x slower — calibration absorbs it.
	old := writeSnapshot(t, dir, "old", 100, map[string]float64{
		"BenchmarkPlatformCycle": 1000,
		"BenchmarkKernelStep256": 400,
	})
	new := writeSnapshot(t, dir, "new", 300, map[string]float64{
		"BenchmarkPlatformCycle": 3100,
		"BenchmarkKernelStep256": 1250,
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"benchdiff", old, new}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Fatalf("missing OK line:\n%s", out.String())
	}
}

func TestMissingGatedBenchmarkFailsRun(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old", 100, map[string]float64{"BenchmarkKernelStep4096": 700})
	new := writeSnapshot(t, dir, "new", 100, map[string]float64{})
	var out, errOut bytes.Buffer
	if code := run([]string{"benchdiff", old, new}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Fatalf("missing MISSING line:\n%s", out.String())
	}
}

func TestUngatedSlowdownDoesNotFail(t *testing.T) {
	dir := t.TempDir()
	// Experiments are reported but never gate the build by default.
	old := writeSnapshot(t, dir, "old", 100, map[string]float64{"E3": 1e6, "BenchmarkPlatformCycle": 1000})
	new := writeSnapshot(t, dir, "new", 100, map[string]float64{"E3": 5e6, "BenchmarkPlatformCycle": 1001})
	var out, errOut bytes.Buffer
	if code := run([]string{"benchdiff", old, new}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errOut.String())
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"benchdiff", "only-one.json"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if code := run([]string{"benchdiff", "-bench", "([", "a.json", "b.json"}, &out, &errOut); code != 2 {
		t.Fatalf("bad regex exit code = %d, want 2", code)
	}
}
