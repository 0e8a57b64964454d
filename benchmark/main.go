// Command benchmark is this repository's benchmark of record: five
// workloads that drive the system from outside (the root daelite facade,
// the admission service's HTTP wire, and each layer's public
// constructor), six end-to-end metrics every workload reports, and a
// per-layer ladder that says where the time goes. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the
// repository root is the machine-readable summary.
//
//	go run ./benchmark                       all workloads, measured then traced, each in a child process
//	go run ./benchmark -workload W           one workload, measured run (tracing off)
//	go run ./benchmark -workload W -trace 1  one workload, traced run: spans on, per-layer ladder
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// runResult is the last line a single-workload run prints: the four
// keys the benchmark driver reads.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what a single-workload run hands its parent beside the
// result: the simulated statistics and the context of every metric.
type runDetail struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Op       string            `json:"op"`
	Reps     int               `json:"repetitions"`
	Sim      simStats          `json:"simulated"`
	Notes    map[string]string `json:"notes,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in-process (default: all five, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 8, "how long a run's timed section measures")
	trace := fs.Int("trace", 0, "1: traced run (spans on, per-layer metrics); 0: measured run (end-to-end metrics)")
	smoke := fs.Bool("smoke", false, "functional check at tiny sizes; the numbers mean nothing")
	traceOut := fs.String("trace-out", "", "traced run: write every span to this file at exit")
	jsonOut := fs.String("json", "", "all-workloads run: write the summary to this file")
	compare := fs.Bool("compare", false, "compare two summaries: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *smoke, *jsonOut, stdout, stderr)
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	cfg := runConfig{Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *smoke,
		TmpDir: filepath.Join(".bench_build", "tmp")}
	res, detail, tr, err := runOne(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	if tr != nil && *traceOut != "" {
		if err := tr.writeFile(*traceOut); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	printRun(stdout, w, res, detail, tr)
	code := 0
	if !res.Correct {
		code = 1
	}
	d, _ := json.Marshal(detail)
	fmt.Fprintf(stdout, "#detail %s\n", d)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// runOne runs one workload in this process.
func runOne(w *workloadDef, cfg runConfig) (*runResult, *runDetail, *tracer, error) {
	runtime.GOMAXPROCS(w.procs(runtime.NumCPU()))
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	m, err := w.run(cfg, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	res := &runResult{Attempted: max(m.Attempted, 1), Failed: m.Failed}
	detail := &runDetail{Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace, Op: m.OpName, Reps: len(m.RepWall), Sim: m.Sim, Failures: m.Failures}
	if cfg.Trace {
		l, err := climbLadder(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		res.Metrics, err = emit(perLayer, perLayerValues(m, l))
		if err != nil {
			return nil, nil, nil, err
		}
	} else {
		v, notes := endToEndValues(m)
		detail.Notes = notes
		res.Metrics, err = emit(endToEnd, v)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	res.Correct = m.Failed == 0
	return res, detail, tr, nil
}
