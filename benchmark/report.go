package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// printRun writes the human-readable account of one run: every metric
// by name with its unit, the simulated statistics (so two commits can
// be compared exactly), what failed, and for a traced run where the
// spans say the time went.
func printRun(w io.Writer, wl *workloadDef, res *runResult, d *runDetail, tr *tracer) {
	mode, defs := "measured run (tracing off)", endToEnd
	if d.Trace {
		mode, defs = "traced run (spans on, layer ladder)", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  GOMAXPROCS %d\n", wl.Name, d.Seed, mode, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "   %s\n", wl.Why)
	fmt.Fprintf(w, "   one op = %s; %d timed repetitions\n", d.Op, d.Reps)
	for _, def := range defs {
		mv, note := res.Metrics[def.Name], d.Notes[def.Name]
		if def.Moves != "" {
			note = "-> " + def.Moves
		}
		fmt.Fprintf(w, "   %-34s %16.6g %-6s %s\n", def.Name, mv.Value, mv.Unit, note)
	}
	sim, _ := json.Marshal(d.Sim)
	fmt.Fprintf(w, "   simulated: %s\n", sim)
	if tr != nil {
		fmt.Fprintf(w, "   spans (self = span minus its children):\n")
		for _, lt := range tr.selfTimes() {
			fmt.Fprintf(w, "     %-28s n=%-7d total %12.3f ms  self %12.3f ms\n", lt.Name, lt.Count,
				float64(lt.Total.Microseconds())/1e3, float64(lt.Self.Microseconds())/1e3)
		}
		m := res.Metrics
		fmt.Fprintf(w, "   reconcile: core.cycle_ns %.1f = router %.1f + ni %.1f + rest %.1f\n", m["core.cycle_ns"].Value,
			m["core.attrib.router_ns"].Value, m["core.attrib.ni_ns"].Value, m["core.attrib.rest_ns"].Value)
		fmt.Fprintf(w, "   reconcile: admission.http_p50_us %.1f = net %.1f + journal %.1f + pipeline %.1f + core %.1f\n",
			m["admission.http_p50_us"].Value, m["admission.net_self_us"].Value, m["admission.journal_self_us"].Value,
			m["admission.pipeline_self_us"].Value, m["admission.core_direct_us"].Value)
	}
	fmt.Fprintf(w, "   attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range d.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

// hostContext is recorded beside a summary so a reader can tell whether
// two summaries came from comparable boxes. Nothing in it normalises a
// metric.
type hostContext struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS string  `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	SpinNS     float64 `json:"spin_ns_per_iter"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	When       string  `json:"when"`
}

// workloadSummary is one workload's measured and traced run together.
type workloadSummary struct {
	Name      string                 `json:"name"`
	Op        string                 `json:"op"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Simulated simStats               `json:"simulated"`
	Notes     map[string]string      `json:"notes"`
}

// summary is the result of a whole run. It claims nothing: Claim is
// always null, and stays the last key.
type summary struct {
	Context   hostContext       `json:"context"`
	Workloads []workloadSummary `json:"workloads"`
	Claim     *string           `json:"claim"`
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild re-executes this binary for one run of one workload, so that
// peak memory and GC state are the workload's own, and returns its
// result and detail lines.
func runChild(exe string, args []string, stdout, stderr io.Writer) (*runResult, *runDetail, error) {
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	var res runResult
	var detail runDetail
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "#detail "); ok {
			if err := json.Unmarshal([]byte(rest), &detail); err != nil {
				return nil, nil, err
			}
			continue
		}
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("child %v printed no result (%v): %v", args, runErr, err)
	}
	return &res, &detail, nil
}

// runAll runs every workload measured, then traced, each in a fresh
// child process, and prints (and optionally writes) the summary.
func runAll(seed uint64, seconds float64, smoke bool, jsonOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	sum := summary{Context: hostContext{
		NProc: runtime.NumCPU(), GOMAXPROCS: "1 for the simulator workloads, min(nproc,2) for admd_mixed",
		GoVersion: runtime.Version(), GitRev: gitRev(), SpinNS: spinCalibration(),
		Seed: seed, Seconds: seconds, When: time.Now().UTC().Format(time.RFC3339),
	}}
	code := 0
	for _, w := range workloads {
		ws := workloadSummary{Name: w.Name, Correct: true}
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace}
			if smoke {
				args = append(args, "-smoke")
			}
			res, detail, err := runChild(exe, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			ws.Correct = ws.Correct && res.Correct
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			if trace == "0" {
				ws.EndToEnd, ws.Op, ws.Simulated, ws.Notes = res.Metrics, detail.Op, detail.Sim, detail.Notes
			} else {
				ws.PerLayer = res.Metrics
			}
		}
		if !ws.Correct {
			code = 1
		}
		sum.Workloads = append(sum.Workloads, ws)
	}
	out, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if jsonOut != "" {
		if err := os.WriteFile(jsonOut, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return code
}
