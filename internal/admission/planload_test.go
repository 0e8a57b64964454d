package admission

import (
	"strings"
	"testing"

	"daelite/internal/workload"
)

// TestRunPlanReplaysDNNPack replays the example DNN pack's connection
// plan against a live service: every phase's set-ups (multicast weight
// broadcasts included) must be admitted, every teardown must close, and
// the report must account for every request.
func TestRunPlanReplaysDNNPack(t *testing.T) {
	_, srv := testService(t, 4, 4, Config{})
	c, err := workload.Compile(workload.ExampleDNN())
	if err != nil {
		t.Fatal(err)
	}
	phases := c.Phases

	rep, err := RunPlan(LoadConfig{BaseURL: srv.URL, Tenants: []string{"alpha"}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenant != "alpha" {
		t.Fatalf("replayed as tenant %q", rep.Tenant)
	}
	if rep.Errors != 0 {
		t.Fatalf("plan replay errors: %d\n%s", rep.Errors, rep)
	}
	var opens int
	for _, ph := range phases {
		opens += len(ph.Conns)
	}
	if rep.Accepted != opens {
		t.Fatalf("accepted %d of %d plan opens\n%s", rep.Accepted, opens, rep)
	}
	// Every phase tears down, so requests = opens + closes.
	if rep.Requests != 2*opens {
		t.Fatalf("issued %d requests, want %d\n%s", rep.Requests, 2*opens, rep)
	}
	if len(rep.Phases) != len(phases) {
		t.Fatalf("report has %d phases, plan has %d", len(rep.Phases), len(phases))
	}
	for _, ph := range rep.Phases {
		if ph.Closed != ph.Accepted {
			t.Fatalf("phase %s closed %d of %d accepted", ph.Name, ph.Closed, ph.Accepted)
		}
	}
	out := rep.String()
	for _, ph := range phases {
		if !strings.Contains(out, ph.Name) {
			t.Fatalf("report omits phase %s:\n%s", ph.Name, out)
		}
	}
}

// TestRunPlanTenantSelection: a plan drives exactly one tenant — a
// multi-tenant config is rejected, an unknown tenant is rejected, and
// with no tenant given the service's first advertised one is picked.
func TestRunPlanTenantSelection(t *testing.T) {
	_, srv := testService(t, 4, 4, Config{})
	empty := &workload.Compiled{Phases: []workload.Phase{{Name: "empty"}}}

	if _, err := RunPlan(LoadConfig{BaseURL: srv.URL, Tenants: []string{"alpha", "beta"}}, empty); err == nil {
		t.Fatal("two tenants accepted")
	}
	if _, err := RunPlan(LoadConfig{BaseURL: srv.URL, Tenants: []string{"nosuch"}}, empty); err == nil {
		t.Fatal("unknown tenant accepted")
	}
	rep, err := RunPlan(LoadConfig{BaseURL: srv.URL}, empty)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenant != "alpha" {
		t.Fatalf("defaulted to tenant %q, want the first advertised (alpha)", rep.Tenant)
	}
}
