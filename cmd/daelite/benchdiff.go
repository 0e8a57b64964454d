package main

import (
	"flag"
	"fmt"
	"io"
	"regexp"

	"daelite/internal/benchfmt"
)

// defaultGate covers the kernel and platform micro-benchmarks the CI
// perf job guards: BenchmarkPlatformCycle and its Telemetry and Tracing
// variants (the trio that bounds observability overhead), BenchmarkKernelStep*,
// BenchmarkBigMesh*, the admission-engine BenchmarkAlloc* set (churn
// and batch set-up throughput), and BenchmarkAdmissionRequest (one full
// control-plane round trip through the admission service).
const defaultGate = `^Benchmark(PlatformCycle|KernelStep|BigMesh|Alloc|Admission)`

// runBenchdiff compares two BENCH_<rev>.json snapshots written by
// `daelite bench -json` and exits non-zero when a gated benchmark
// regressed beyond the threshold. ns/op values are normalized by each
// file's embedded calibration number, so a baseline committed from one
// machine can gate measurements taken on another.
//
//	daelite benchdiff [-threshold 0.20] [-bench regex] old.json new.json
//
// Benchmarks matching -bench are held to the threshold; everything else
// is reported for context but never fails the run. A gated benchmark
// present in old.json but missing from new.json is a failure too.
func runBenchdiff(argv []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("daelite benchdiff", flag.ContinueOnError)
	fs.SetOutput(errOut)
	threshold := fs.Float64("threshold", 0.20, "fail when a gated benchmark's normalized ns/op grows by more than this fraction")
	gatePat := fs.String("bench", defaultGate, "regexp selecting the benchmarks held to the threshold")
	if err := fs.Parse(argv); err != nil {
		return exitParse(err)
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(errOut, "usage: daelite benchdiff [-threshold 0.20] [-bench regex] old.json new.json")
		return 2
	}
	gate, err := regexp.Compile(*gatePat)
	if err != nil {
		fmt.Fprintln(errOut, "error: bad -bench pattern:", err)
		return 2
	}
	old, err := benchfmt.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errOut, "error:", err)
		return 2
	}
	new, err := benchfmt.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(errOut, "error:", err)
		return 2
	}

	c, err := benchfmt.Compare(old, new, *threshold, gate)
	if err != nil {
		fmt.Fprintln(errOut, "error:", err)
		return 2
	}

	fmt.Fprintf(out, "old: rev %s (%s, GOMAXPROCS %d, calibration %.0f ns/op)\n",
		old.Rev, old.GoVersion, old.GOMAXPROCS, old.CalibrationNsPerOp)
	fmt.Fprintf(out, "new: rev %s (%s, GOMAXPROCS %d, calibration %.0f ns/op)\n\n",
		new.Rev, new.GoVersion, new.GOMAXPROCS, new.CalibrationNsPerOp)
	fmt.Fprintf(out, "%-32s %14s %14s %8s %s\n", "benchmark", "old(norm)", "new(norm)", "ratio", "gate")
	for _, d := range c.Deltas {
		mark := ""
		if d.Gated {
			mark = "gated"
		}
		if d.Regression {
			mark = "REGRESSION"
		}
		fmt.Fprintf(out, "%-32s %14.2f %14.2f %8.3f %s\n", d.Name, d.OldNorm, d.NewNorm, d.Ratio, mark)
	}
	for _, name := range c.MissingInNew {
		fmt.Fprintf(out, "%-32s %14s %14s %8s MISSING\n", name, "-", "-", "-")
	}

	if c.Failed() {
		fmt.Fprintf(errOut, "\nFAIL: %d regression(s) beyond %.0f%%, %d gated benchmark(s) missing\n",
			len(c.Regressions()), *threshold*100, len(c.MissingInNew))
		return 1
	}
	fmt.Fprintf(out, "\nOK: no gated benchmark regressed beyond %.0f%%\n", *threshold*100)
	return 0
}
