package admission

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"daelite/internal/core"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

// RequestBenchOp builds a running admission service on a 4x4 platform
// and returns a step op, the body of the AdmissionRequest entry of
// experiments.Micro (BenchmarkMicro/AdmissionRequest):
// each op is one complete admission round trip — an HTTP open decoded,
// queued, drafted under DRR and quota, committed through the platform's
// batch engine with its configuration settled and journal sequence
// advanced, then the handle closed the same way so occupancy returns to
// the baseline. It measures the end-to-end cost of one control-plane
// request, not just the allocator.
//
// The returned cleanup stops the service; call it when done measuring.
func RequestBenchOp() (op func(), cleanup func(), err error) {
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1},
		core.DefaultParams(), 0, 0)
	if err != nil {
		return nil, nil, err
	}
	s, err := NewService(p, telemetry.NewRegistry(), Config{
		Tenants: []TenantConfig{{Name: "bench", Class: Gold}},
	})
	if err != nil {
		return nil, nil, err
	}
	s.Start()
	h := s.Handler()

	openBody := []byte(`{"tenant":"bench","src":"0,1","dst":"3,2","slots_fwd":2}`)
	do := func(method, path string, body []byte) (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("admission: bench %s %s: status %d: %s", method, path, w.Code, w.Body.String())
		}
		return w, nil
	}

	op = func() {
		w, err := do("POST", "/v1/connections", openBody)
		if err != nil {
			panic(err)
		}
		var rep struct {
			Handle uint64 `json:"handle"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			panic(err)
		}
		if _, err := do("DELETE", fmt.Sprintf("/v1/connections/%d?tenant=bench", rep.Handle), nil); err != nil {
			panic(err)
		}
	}
	cleanup = func() { _ = s.Stop() }
	return op, cleanup, nil
}
