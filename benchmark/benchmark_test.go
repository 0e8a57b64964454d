package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func smoke(t *testing.T, name string, trace bool) (*runResult, *runDetail) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	res, detail, _, err := runOne(w, runConfig{Workload: name, Seed: 1, Smoke: true, Trace: trace, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return res, detail
}

// Every workload passes its own correctness gate at smoke size and
// reports every end-to-end metric as a positive number.
func TestSmokeWorkloadsPassTheGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, detail := smoke(t, w.Name, false)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, detail.Failures)
			}
			if res.Attempted < 100 {
				t.Fatalf("attempted only %d operations", res.Attempted)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}

// torus16_duty with fast-forward on must deliver exactly what the
// cycle-accurate reference delivers, word for word and cycle for cycle.
func TestDutyFastForwardEqualsAccurate(t *testing.T) {
	run := func(accurate bool) simStats {
		m, err := runTorus(runConfig{Workload: "torus16_duty", Seed: 7, Smoke: true, AccurateOnly: accurate}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Failed != 0 {
			t.Fatalf("accurate=%v: %v", accurate, m.Failures)
		}
		return m.Sim
	}
	ff, ref := run(false), run(true)
	if ff.SkippedCycles == 0 || ref.SkippedCycles != 0 {
		t.Fatalf("skipped cycles: fast-forward %d, reference %d", ff.SkippedCycles, ref.SkippedCycles)
	}
	ff.SkippedCycles = 0
	if ff != ref {
		t.Fatalf("fast-forward diverged from the cycle-accurate reference:\n ff  %+v\n ref %+v", ff, ref)
	}
}

// The same seed gives the same inputs, another seed gives others.
func TestStreamsFollowTheSeed(t *testing.T) {
	hole := xy{7, 7}
	if a, b := hashChurn(churnStream(3, 8, 8, 500, hole)), hashChurn(churnStream(3, 8, 8, 500, hole)); a != b {
		t.Fatalf("churn stream not reproducible: %x vs %x", a, b)
	}
	if a, b := hashChurn(churnStream(3, 8, 8, 500, hole)), hashChurn(churnStream(4, 8, 8, 500, hole)); a == b {
		t.Fatal("churn stream ignores the seed")
	}
	for _, op := range churnStream(3, 8, 8, 500, hole) {
		for _, c := range append([]xy{op.Src}, op.Dsts...) {
			if op.Open && c == hole {
				t.Fatalf("churn stream names the excluded NI: %+v", op)
			}
		}
	}
	if a, b := hashAdm(admStream(3, 0, 2, 4, 500)), hashAdm(admStream(3, 0, 2, 4, 500)); a != b {
		t.Fatalf("admission stream not reproducible: %x vs %x", a, b)
	}
	if a, b := hashAdm(admStream(3, 0, 2, 4, 500)), hashAdm(admStream(4, 0, 2, 4, 500)); a == b {
		t.Fatal("admission stream ignores the seed")
	}
	for _, d := range admStream(3, 2, 2, 4, 500) {
		for _, c := range append([][2]uint8{d.Src}, d.Dsts[:d.NDst]...) {
			if c[0] < 2 || c[0] > 3 || c[1] > 3 {
				t.Fatalf("admission draw leaves its band: %+v", d)
			}
		}
	}
	if payloadWord(1, 5, 9) != payloadWord(1, 5, 9) || payloadWord(1, 5, 9) == payloadWord(2, 5, 9) {
		t.Fatal("payload words do not follow the seed")
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100_000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {3, 50}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if c.n >= 20 {
			if beyond := float64(c.n) * (100 - supportedTail(c.n)); beyond < 1000 {
				t.Errorf("n=%d: only %.1f samples beyond p%g", c.n, beyond/100, supportedTail(c.n))
			}
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v", got)
	}
	if got := histPercentile([]uint64{0, 5, 0, 5}, 50); got != 1 {
		t.Errorf("histogram p50 = %d, want 1", got)
	}
}

// The spread this program prints is the one the acceptance procedure
// computes with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Fatalf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got := iqrShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("iqrShare = %v, want 1", got)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the program agree: every name in the file is
// emitted, every emitted name is in the file, with the same unit,
// direction and bound, and every name and unit is well formed.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q malformed", name, unit)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: file has %q (%q)", i, w.Name, w.Why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: file has %+v, program %+v", i, m, d)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		check(m.Name, m.Unit)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, program %+v", i, m, d)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}

	// What a run prints is exactly what the file names.
	keys := func(m map[string]metricValue) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	want := func(n int, name func(int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = name(i)
		}
		sort.Strings(out)
		return out
	}
	res, _ := smoke(t, "mesh8_churn", false)
	if got, w := keys(res.Metrics), want(len(spec.EndToEnd), func(i int) string { return spec.EndToEnd[i].Name }); strings.Join(got, " ") != strings.Join(w, " ") {
		t.Errorf("measured run printed %v, the file names %v", got, w)
	}
	res, detail := smoke(t, "mesh8_churn", true)
	if !res.Correct {
		t.Fatalf("traced smoke run failed: %v", detail.Failures)
	}
	if got, w := keys(res.Metrics), want(len(spec.PerLayer), func(i int) string { return spec.PerLayer[i].Name }); strings.Join(got, " ") != strings.Join(w, " ") {
		t.Errorf("traced run printed %v, the file names %v", got, w)
	}
}

// -compare flags an end-to-end metric beyond its bound and an exact
// metric that differs at all, and lets noise inside the bound pass.
func TestCompareFlags(t *testing.T) {
	mk := func(cps, words float64) *summary {
		e2e, layers := map[string]metricValue{}, map[string]metricValue{}
		for _, d := range endToEnd {
			e2e[d.Name] = metricValue{Value: 100, Unit: d.Unit}
		}
		for _, d := range perLayer {
			layers[d.Name] = metricValue{Value: 7, Unit: d.Unit}
		}
		e2e["sim_cycles_per_s"] = metricValue{Value: cps, Unit: "1/s"}
		layers["delivered_words"] = metricValue{Value: words, Unit: "count"}
		return &summary{Workloads: []workloadSummary{{Name: "torus16_dense", Correct: true, EndToEnd: e2e, PerLayer: layers}}}
	}
	var out bytes.Buffer
	if code := compareSummaries(mk(100, 5), mk(90, 5), &out); code != 0 {
		t.Fatalf("10%% worse, inside the bound, was flagged:\n%s", out.String())
	}
	out.Reset()
	if code := compareSummaries(mk(100, 5), mk(70, 5), &out); code != 1 || !strings.Contains(out.String(), "FLAG worse by 30.0%") {
		t.Fatalf("30%% worse was not flagged:\n%s", out.String())
	}
	out.Reset()
	if code := compareSummaries(mk(100, 5), mk(100, 6), &out); code != 1 || !strings.Contains(out.String(), "exact metric differs") {
		t.Fatalf("a differing exact metric was not flagged:\n%s", out.String())
	}
}
