package admission

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzWhatIfBody: whatever bytes a client POSTs to /v1/whatif, the
// service answers with a JSON body and a 2xx or 4xx status (503 when it
// refuses for load), never panics and never another 5xx, and the
// read-only probe leaves the allocator fingerprint where it was. The
// service holds one live connection, so a probe that reserved or
// released anything would show.
func FuzzWhatIfBody(f *testing.F) {
	for _, body := range []string{
		`{"tenant":"alpha","src":"0,0","dst":"2,2","slots_fwd":1}`,
		`{"tenant":"beta","src":1,"dst":"3,3","slots_fwd":2,"slots_rev":1,"spread":true}`,
		`{"tenant":"alpha","src":"0,0","dsts":["1,1","2,3"],"slots_fwd":1}`,
		`{"tenant":"gamma","src":"0,1","dst":"3,0","slots_fwd":3,"multipath":true,"max_detour":2,"trace":true}`,
		`{"tenant":"alpha","src":"0,0","dst":"0,0","slots_fwd":99}`,
		`{"tenant":"nobody","src":"0,0","dst":"1,1","slots_fwd":1}`,
		`{"tenant":"alpha","src":-1,"dst":"9,9","slots_fwd":-3}`,
		`{"tenant":"alpha","src":0,"dst":4,"slots_fwd":1}`,
		`{"tenant":"alpha","src":"0,0","dst":"1,1","slots_fwd":1,"max_detour":1000000}`,
		`{"tenant":"alpha","src":"0,0","dsts":[],"slots_fwd":1}`,
		`[]`, `null`, `{`, ``, `{"src":{"x":1}}`,
	} {
		f.Add([]byte(body))
	}
	s, srv := testService(f, 4, 4, Config{})
	if code, out := post(f, srv.URL, "/v1/connections", map[string]any{
		"tenant": "alpha", "src": "0,0", "dst": "3,3", "slots_fwd": 2,
	}); code != http.StatusOK {
		f.Fatalf("open: %d %v", code, out)
	}
	want, _, _ := s.Fingerprint()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader(body)))
		if code := rec.Code; code >= 500 && code != http.StatusServiceUnavailable || code < 200 || code >= 300 && code < 400 {
			t.Fatalf("status %d for %q: %s", code, body, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d for %q: reply is not JSON: %q", rec.Code, body, rec.Body.Bytes())
		}
		if got, _, _ := s.Fingerprint(); got != want {
			t.Fatalf("what-if %q moved the allocator fingerprint from %016x to %016x", body, want, got)
		}
	})
}
