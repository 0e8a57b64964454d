package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentFails: a selection that matches nothing is an
// error naming the argument, not an empty success.
func TestUnknownExperimentFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"bench", "-experiment", "nonesuch"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), `"nonesuch"`) {
		t.Fatalf("stdout %q, stderr %q: want nothing on stdout and the argument named on stderr", out.String(), errOut.String())
	}
}
