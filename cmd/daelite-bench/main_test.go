package main

import (
	"bytes"
	"strings"
	"testing"

	"daelite/internal/benchfmt"
	"daelite/internal/experiments"
)

// TestUnknownExperimentFails: a selection that matches nothing is an
// error naming the argument, not an empty success.
func TestUnknownExperimentFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-experiment", "nonesuch"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), `"nonesuch"`) {
		t.Fatalf("stdout %q, stderr %q: want nothing on stdout and the argument named on stderr", out.String(), errOut.String())
	}
}

// TestSnapshotCoversBaseline builds the key set a -json snapshot carries
// (one per Registry entry, one per Micro entry) without running anything
// and checks that every benchmark BENCH_baseline.json names is in it.
// daelite-benchdiff fails on a gated name missing from the new run; this
// puts that failure in `go test ./...` instead of the CI bench job only.
func TestSnapshotCoversBaseline(t *testing.T) {
	keys := map[string]bool{}
	for _, e := range experiments.Registry {
		keys[e.ID] = true
	}
	for _, m := range experiments.Micro {
		keys[snapshotKey(m)] = true
	}
	if want := len(experiments.Registry) + len(experiments.Micro); len(keys) != want {
		t.Fatalf("%d distinct snapshot keys for %d table entries: a name is duplicated", len(keys), want)
	}
	baseline, err := benchfmt.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	for name := range baseline.Benchmarks {
		if !keys[name] {
			t.Errorf("BENCH_baseline.json names %s, which neither Registry nor Micro would write", name)
		}
	}
}
