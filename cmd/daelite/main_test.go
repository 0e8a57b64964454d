package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// daelite runs the binary's entry point in-process, as main would.
func daelite(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

const sampleSpec = `{
  "mesh": {"width": 3, "height": 3},
  "host": {"x": 0, "y": 0},
  "connections": [
    {"name": "video", "src": {"x": 0, "y": 0}, "dst": {"x": 2, "y": 2}, "slotsFwd": 4, "rate": 0.2},
    {"src": {"x": 1, "y": 0}, "dst": {"x": 1, "y": 2}, "slotsFwd": 1},
    {"name": "bcast", "src": {"x": 1, "y": 1}, "dsts": [{"x": 0, "y": 2}, {"x": 2, "y": 0}], "slotsFwd": 2}
  ]
}`

// TestRun drives the dispatcher and every subcommand through run, the
// way main does: exit status, and what must appear on stdout and stderr.
func TestRun(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "platform.json")
	if err := os.WriteFile(specPath, []byte(sampleSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range commands {
		names = append(names, c.name)
	}
	type row struct {
		name      string
		args      []string
		code      int
		stdout    []string
		stderr    []string
		notStderr string
	}
	rows := []row{
		{name: "no arguments", code: 2, stderr: names},
		{name: "unknown subcommand", args: []string{"nonesuch"}, code: 2, stderr: append([]string{`"nonesuch"`}, names...)},
		{name: "sim bad connection", args: []string{"sim", "-mesh", "2x2", "-cycles", "100", "bogus-connection"},
			code: 1, stderr: []string{"daelite sim:", `"bogus-connection"`}},
		{name: "sim bad flag", args: []string{"sim", "-nonesuch"}, code: 2, stderr: []string{"-nonesuch"}},
		// Coordinates outside the mesh are rejected, naming the argument,
		// instead of indexing past the router table.
		{name: "sim coordinates outside mesh", args: []string{"sim", "-mesh", "2x2", "0,0-5,5:1"},
			code: 1, stderr: []string{`"0,0-5,5:1"`, "outside the 2x2 mesh"}, notStderr: "panic"},
		{name: "alloc coordinates outside mesh", args: []string{"alloc", "-mesh", "2x2", "0,0-5,5:1"},
			code: 1, stderr: []string{`"0,0-5,5:1"`, "outside the 2x2 mesh"}, notStderr: "panic"},
		{name: "dimension coordinates outside mesh", args: []string{"dimension", "-mesh", "2x2", "0,0-5,5:0.1"},
			code: 1, stderr: []string{`"0,0-5,5:0.1"`, "outside the 2x2 mesh"}, notStderr: "panic"},
		{name: "conform sweep and smoke", args: []string{"conform", "-scenarios", "3", "-v"},
			stdout: []string{"sweep: 3/3 scenarios passed", "mutation smoke: slot-table violations="}},
		// A scenario never goes quiet, so a fast-forwarded sweep would
		// skip nothing: -fastforward is for packs.
		{name: "conform fastforward without workload", args: []string{"conform", "-scenarios", "1", "-fastforward"},
			code: 2, stderr: []string{"-fastforward needs -workload", "never go quiet"}},
		{name: "area", args: []string{"area"},
			stdout: []string{"Table II", "router total", "Frequency estimates"}},
		{name: "dimension", args: []string{"dimension", "-mesh", "3x3", "0,0-2,2:0.25@40", "1,0-1,2:0.0625"},
			stdout: []string{"smallest feasible wheel:", "req0", "req1"}},
		{name: "spec", args: []string{"spec", specPath},
			stdout: []string{"spec valid: mesh 3x3, 3 connections", "video", "conn1", "multicast tree", "Utilization", "configuration completed"}},
		{name: "spec -check", args: []string{"spec", "-check", specPath}, stdout: []string{"spec valid"}},
		{name: "spec without a file", args: []string{"spec"}, code: 2, stderr: []string{"usage: daelite spec"}},
		{name: "alloc -batch -stats", args: []string{"alloc", "-mesh", "4x4", "-batch", "-stats", "-workers", "2", "0,0-3,3:2", "1,0-1,3:4"},
			stdout: []string{"batch: 2 items, 2 committed", "Link occupancy (used slots)", "path cache:"}},
	}
	for _, c := range commands {
		rows = append(rows, row{name: c.name + " -h", args: []string{c.name, "-h"}, stderr: []string{"daelite " + c.name}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			stdout, stderr, code := daelite(r.args...)
			if code != r.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, r.code, stdout, stderr)
			}
			for _, want := range r.stdout {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout)
				}
			}
			for _, want := range r.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr)
				}
			}
			if r.notStderr != "" && strings.Contains(stderr, r.notStderr) {
				t.Errorf("stderr contains %q:\n%s", r.notStderr, stderr)
			}
		})
	}
}

var fpLine = regexp.MustCompile(`fingerprint: ([0-9a-f]{16})`)

// TestFingerprintExitCodes checks the -expect-fingerprint contract of
// the seeded runs: a run prints its fingerprint, the same invocation
// expecting that value exits 0 (replay is bit-identical), and a wrong
// value exits non-zero with a mismatch diagnosis.
func TestFingerprintExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"sim", "-mesh", "2x2", "-cycles", "2000", "0,0-1,1:1@0.1"},
		{"chaos", "-mesh", "3x3", "-conns", "2", "-kill", "1", "-cycles", "4000", "-seed", "3"},
	} {
		t.Run(args[0], func(t *testing.T) {
			with := func(fp string) []string { return append([]string{args[0], "-expect-fingerprint", fp}, args[1:]...) }
			stdout, stderr, code := daelite(args...)
			if code != 0 {
				t.Fatalf("baseline run exited %d:\n%s%s", code, stdout, stderr)
			}
			m := fpLine.FindStringSubmatch(stdout)
			if m == nil {
				t.Fatalf("no fingerprint line in output:\n%s", stdout)
			}
			if stdout, stderr, code = daelite(with(m[1])...); code != 0 {
				t.Fatalf("matching fingerprint exited %d:\n%s%s", code, stdout, stderr)
			}
			if stdout, stderr, code = daelite(with("00000000deadbeef")...); code == 0 {
				t.Fatalf("mismatched fingerprint exited 0:\n%s", stdout)
			}
			if !strings.Contains(stderr, "fingerprint mismatch") {
				t.Fatalf("no mismatch diagnosis on stderr:\n%s", stderr)
			}
		})
	}
}

// TestArtifactsOnFailingExit: a run that fails its fingerprint check
// still writes every artifact it was asked for — the failing run is the
// one whose waveform and trace matter most.
func TestArtifactsOnFailingExit(t *testing.T) {
	dir := t.TempDir()
	vcd, tel, tr := filepath.Join(dir, "run.vcd"), filepath.Join(dir, "run.ndjson"), filepath.Join(dir, "trace.json")
	stdout, stderr, code := daelite("sim", "-mesh", "2x2", "-cycles", "2000",
		"-vcd", vcd, "-telemetry-out", tel, "-trace-out", tr,
		"-expect-fingerprint", "00000000deadbeef", "0,0-1,1:1@0.1")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, path := range []string{vcd, tel, tr} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty after a failing run (err %v)", filepath.Base(path), err)
		}
	}
}
