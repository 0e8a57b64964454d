package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentFails: a selection that matches nothing is an
// error naming the argument, not an empty success. That includes a
// retired experiment ID.
func TestUnknownExperimentFails(t *testing.T) {
	for _, which := range []string{"nonesuch", "E22"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"bench", "-experiment", which}, &out, &errOut); code != 1 {
			t.Fatalf("%s: exit code = %d, want 1", which, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), `"`+which+`"`) {
			t.Fatalf("%s: stdout %q, stderr %q: want nothing on stdout and the argument named on stderr", which, out.String(), errOut.String())
		}
	}
}
