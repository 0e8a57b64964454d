package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daelite/internal/workload"
)

// writePack marshals a workload spec to a pack file in a test dir.
func writePack(t *testing.T, s *workload.Spec) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), s.Name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadWorkloadErrors(t *testing.T) {
	if _, err := LoadWorkload(filepath.Join(t.TempDir(), "nosuch.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWorkload(bad); err == nil {
		t.Fatal("malformed pack loaded")
	}
}

// TestRunWorkloadPack drives the shared -workload front-end end to end:
// the DNN pack runs clean with exporters attached, the report renders
// every phase, the telemetry and trace files land, and a wrong
// -expect-fingerprint fails the run.
func TestRunWorkloadPack(t *testing.T) {
	path := writePack(t, workload.ExampleDNN())
	dir := t.TempDir()
	pf := &PlatformFlags{
		TelemetryOut: filepath.Join(dir, "telemetry.ndjson"),
		TraceOut:     filepath.Join(dir, "trace.json"),
	}
	var out strings.Builder
	if err := RunWorkload(&out, pf, WorkloadRun{Path: path}); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"conv1.weights", "fc.weights", "PASS", "fingerprint:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	for _, f := range []string{pf.TelemetryOut, pf.TraceOut} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}

	if err := RunWorkload(&out, &PlatformFlags{},
		WorkloadRun{Path: path, ExpectFingerprint: "deadbeef"}); err == nil {
		t.Fatal("wrong -expect-fingerprint accepted")
	}
}

// TestRunWorkloadPackChaos: with a chaos cadence the run plants faults,
// repairs around them, and still finishes deterministic and clean.
func TestRunWorkloadPackChaos(t *testing.T) {
	path := writePack(t, workload.ExampleDNN())
	var out strings.Builder
	if err := RunWorkload(&out, &PlatformFlags{}, WorkloadRun{Path: path, ChaosEvery: 2}); err != nil {
		t.Fatalf("chaos run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "repaired") {
		t.Fatalf("chaos run shows no fault column:\n%s", out.String())
	}
}

// TestSweepWorkloadPack runs the conformance front-end on the Tiny Tera
// pack: bit-exact against the fast-forwarded run, then the mutation
// smoke.
func TestSweepWorkloadPack(t *testing.T) {
	path := writePack(t, workload.ExampleTinyTera("hotspot"))
	var out strings.Builder
	if err := SweepWorkload(&out, path, true, true); err != nil {
		t.Fatalf("sweep: %v\n%s", err, out.String())
	}
	for _, want := range []string{"bit-exact across two runs", "fast-forward:", "mutation smoke:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}
