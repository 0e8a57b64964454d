package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"daelite/internal/experiments"
)

// runBench regenerates every table, figure and quantified claim of the
// paper's evaluation section and prints them in the paper's row/series
// format. Every mode is a loop over experiments.Registry; -experiment
// runs what experiments.Select picks: an ID (E3) or an artifact
// substring ("Table III"), ignoring case.
func runBench(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	which := fs.String("experiment", "", "run only the experiments with this ID (E1..E24, A1..A9) or artifact substring, ignoring case")
	listOnly := fs.Bool("list", false, "list experiments without running them")
	outPath := fs.String("o", "", "also write the output to this file")
	fastforward := fs.Bool("fastforward", false, "arm fast-forwarding on experiment platforms (tables stay bit-identical; only wall clock changes)")
	if err := parse(fs, argv); err != nil {
		return err
	}
	experiments.SetFastForward(*fastforward)

	if *listOnly {
		for _, e := range experiments.Registry {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Artifact)
		}
		return nil
	}
	selected := experiments.Select(*which)
	if len(selected) == 0 {
		return fmt.Errorf("no experiment matches -experiment %q (see -list)", *which)
	}
	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}
	for _, e := range selected {
		r, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		printResult(out, r)
	}
	return nil
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
