package admission

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"daelite/internal/topology"
)

// refUnmarshalNodeRef is NodeRef.UnmarshalJSON without its fast path for
// the canonical "x,y" form: the general decode every input used to take.
func refUnmarshalNodeRef(n *NodeRef, b []byte) error {
	var num int64
	if err := json.Unmarshal(b, &num); err == nil {
		n.id = topology.NodeID(num)
		n.direct = true
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("node ref must be a node ID or \"x,y\": %s", string(b))
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d,%d", &n.x, &n.y); err != nil {
		return fmt.Errorf("bad node coordinate %q (want \"x,y\")", s)
	}
	n.coord = true
	return nil
}

// FuzzNodeRef: for any bytes, NodeRef.UnmarshalJSON agrees with the
// general decode — the same success or failure, the same error text and
// the same id or (x, y). Each input is also tried in quotes, so the
// fuzzer explores string contents without having to find the quotes.
func FuzzNodeRef(f *testing.F) {
	for _, in := range []string{
		`"2,3"`, `" 2,3"`, `"2, 3"`, `"+2,3"`, `"-1,2"`, `"2,3x"`, `"007,1"`,
		`"12345678901234567890,1"`, `17`, `"17"`, `null`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, append(append([]byte{'"'}, b...), '"')} {
			var got, want NodeRef
			gotErr := got.UnmarshalJSON(in)
			wantErr := refUnmarshalNodeRef(&want, in)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: error %v, reference %v", in, gotErr, wantErr)
			}
			if gotErr == nil && got != want {
				t.Fatalf("%q: decoded %+v, reference %+v", in, got, want)
			}
		}
	})
}
