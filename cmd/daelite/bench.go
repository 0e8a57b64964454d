package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"daelite/internal/benchfmt"
	"daelite/internal/experiments"
)

// runBench regenerates every table, figure and quantified claim of the
// paper's evaluation section and prints them in the paper's row/series
// format. Every mode is a loop over experiments.Registry; -experiment
// runs what experiments.Select picks: an ID (E3) or an artifact
// substring ("Table III"), ignoring case.
//
// With -json it instead emits a machine-readable BENCH_<rev>.json
// snapshot (see internal/benchfmt): ns/op and metrics for every Registry
// entry, ns/op for every experiments.Micro entry, and a calibration
// number so benchdiff can compare snapshots across machines.
func runBench(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("daelite bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("experiment", "", "run only the experiments with this ID (E1..E24, A1..A9) or artifact substring, ignoring case")
	listOnly := fs.Bool("list", false, "list experiments without running them")
	outPath := fs.String("o", "", "also write the output to this file (with -json: the snapshot path)")
	jsonOut := fs.Bool("json", false, "emit a BENCH_<rev>.json machine-readable snapshot instead of tables")
	fastforward := fs.Bool("fastforward", false, "arm fast-forwarding on experiment platforms (tables stay bit-identical; only wall clock changes)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(argv); err != nil {
		return exitParse(err)
	}
	experiments.SetFastForward(*fastforward)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "daelite bench:", err)
		return 1
	}

	if *listOnly {
		for _, e := range experiments.Registry {
			note := ""
			if e.WallClock {
				note = " (wall-clock; not in golden output)"
			}
			fmt.Fprintf(stdout, "%-4s %s%s\n", e.ID, e.Artifact, note)
		}
		return 0
	}
	selected := experiments.Select(*which)
	if len(selected) == 0 {
		return fail(fmt.Errorf("no experiment matches -experiment %q (see -list)", *which))
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			runtime.GC()
			if err := writeFile(*memProfile, pprof.WriteHeapProfile); err != nil {
				fail(err)
			}
		}()
	}
	if *jsonOut {
		if err := writeJSON(stdout, *outPath); err != nil {
			return fail(err)
		}
		return 0
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}
	for _, e := range selected {
		r, err := e.Run()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		printResult(out, r)
	}
	return 0
}

func printResult(out io.Writer, r *experiments.Result) {
	fmt.Fprintf(out, "==== %s — %s ====\n\n", r.ID, r.Artifact)
	fmt.Fprintln(out, r.Text)
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(out, "metrics:")
		for _, k := range keys {
			fmt.Fprintf(out, "  %-32s %g\n", k, r.Metrics[k])
		}
	}
	fmt.Fprintln(out)
}

// measure times op until at least minMeasure of wall clock has elapsed
// and returns ns/op. op is run once untimed to warm caches.
const minMeasure = 100 * time.Millisecond

func measure(op func()) float64 {
	op()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		elapsed := time.Since(start)
		if elapsed >= minMeasure || n >= 1<<22 {
			return float64(elapsed.Nanoseconds()) / float64(n)
		}
		n *= 2
	}
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink uint64

// calibrate measures the fixed xorshift spin loop every snapshot embeds,
// so benchdiff can normalize ns/op across machines of different speeds.
func calibrate() float64 {
	return measure(func() {
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 1<<14; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
	})
}

// writeJSON times every Micro entry, then every Registry entry once,
// wall-clock ones included. The gated Micro ops go first, on the small
// heap BENCH_baseline.json was measured on: after the experiments
// PlatformCycle read 1.5x slower.
func writeJSON(stdout io.Writer, outPath string) error {
	f := &benchfmt.File{
		Rev:                gitRev(),
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		CalibrationNsPerOp: calibrate(),
		Benchmarks:         map[string]benchfmt.Entry{},
	}
	for _, m := range experiments.Micro {
		op, cyclesPerOp, cleanup, err := m.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		entry := benchfmt.Entry{NsPerOp: measure(op)}
		cleanup()
		if cyclesPerOp > 0 {
			entry.Metrics = map[string]float64{"cycles_per_sec": cyclesPerOp * 1e9 / entry.NsPerOp}
		}
		f.Benchmarks[snapshotKey(m)] = entry
	}
	for _, e := range experiments.Registry {
		start := time.Now()
		r, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		f.Benchmarks[e.ID] = benchfmt.Entry{NsPerOp: float64(time.Since(start).Nanoseconds()), Metrics: r.Metrics}
	}

	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", f.Rev)
	}
	if err := f.WriteFile(outPath); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d benchmarks, calibration %.0f ns/op, rev %s, %s, GOMAXPROCS %d\n",
		outPath, len(f.Benchmarks), f.CalibrationNsPerOp, f.Rev, f.GoVersion, f.GOMAXPROCS)
	return nil
}

// snapshotKey is the name a Micro entry has in the snapshot: the one
// BENCH_baseline.json records and benchdiff's gate matches.
func snapshotKey(m experiments.MicroBench) string { return "Benchmark" + m.Name }

// gitRev returns the short hash of HEAD, or "dev" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return "dev"
	}
	return rev
}
