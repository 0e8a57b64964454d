// Package benchfmt defines the machine-readable benchmark file the perf
// gate runs on: daelite bench -json writes a BENCH_<rev>.json with
// one entry per benchmark (wall-clock ns/op plus the experiment headline
// metrics), and daelite benchdiff compares two such files and fails
// on throughput regressions beyond a threshold.
//
// Raw ns/op is meaningless across machines, so every file also records a
// calibration number: the ns/op of a fixed arithmetic loop measured in
// the same process. Comparisons divide each benchmark's ns/op by its
// file's calibration, which cancels most of the machine-speed difference
// between the committed baseline and the machine re-measuring it.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

// Entry is one benchmark's measurement.
type Entry struct {
	// NsPerOp is the wall-clock nanoseconds per operation (for
	// experiments: per full regeneration).
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics carries the experiment's headline numbers, when any.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is a complete benchmark snapshot.
type File struct {
	// Rev identifies the measured revision (git short hash, or "dev").
	Rev string `json:"rev"`
	// GoVersion and GOMAXPROCS describe the measuring toolchain/machine.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CalibrationNsPerOp is the fixed spin-loop cost on this machine;
	// see the package comment.
	CalibrationNsPerOp float64 `json:"calibration_ns_per_op"`
	// Benchmarks maps benchmark name to its measurement.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Write serializes f as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// WriteFile writes f to path.
func (f *File) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	return f.Write(out)
}

// Read parses a benchmark file.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	if f.Benchmarks == nil {
		return nil, fmt.Errorf("benchfmt: no benchmarks section")
	}
	return &f, nil
}

// ReadFile parses the benchmark file at path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	f, err := Read(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name string
	// OldNorm and NewNorm are calibration-normalized ns/op.
	OldNorm, NewNorm float64
	// Ratio is NewNorm / OldNorm: > 1 means slower.
	Ratio float64
	// Regression is true when the benchmark is gated (matched the gate
	// pattern) and Ratio exceeded 1 + threshold.
	Regression bool
	// Gated records whether the regression threshold applied to it.
	Gated bool
}

// Comparison is the full result of comparing two files.
type Comparison struct {
	Deltas []Delta
	// MissingInNew lists gated benchmarks present in the baseline but
	// absent from the new measurement — each is a failure (a silently
	// dropped benchmark must not pass the gate).
	MissingInNew []string
}

// Regressions returns the failed deltas.
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Failed reports whether the comparison should fail a build.
func (c *Comparison) Failed() bool {
	return len(c.Regressions()) > 0 || len(c.MissingInNew) > 0
}

// Compare evaluates new against old. Benchmarks whose name matches gate
// are held to the threshold (e.g. 0.20 fails on >20% normalized
// slowdown); everything else is reported but never fails. A nil gate
// gates every benchmark.
func Compare(old, new *File, threshold float64, gate *regexp.Regexp) (*Comparison, error) {
	if threshold < 0 {
		return nil, fmt.Errorf("benchfmt: negative threshold")
	}
	oldCal, newCal := old.CalibrationNsPerOp, new.CalibrationNsPerOp
	if oldCal <= 0 || newCal <= 0 {
		return nil, fmt.Errorf("benchfmt: missing calibration (old %g, new %g)", oldCal, newCal)
	}
	names := make([]string, 0, len(old.Benchmarks))
	for name := range old.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	c := &Comparison{}
	for _, name := range names {
		gated := gate == nil || gate.MatchString(name)
		ob := old.Benchmarks[name]
		nb, ok := new.Benchmarks[name]
		if !ok {
			if gated {
				c.MissingInNew = append(c.MissingInNew, name)
			}
			continue
		}
		if ob.NsPerOp <= 0 {
			continue
		}
		d := Delta{
			Name:    name,
			OldNorm: ob.NsPerOp / oldCal,
			NewNorm: nb.NsPerOp / newCal,
			Gated:   gated,
		}
		d.Ratio = d.NewNorm / d.OldNorm
		d.Regression = gated && d.Ratio > 1+threshold
		c.Deltas = append(c.Deltas, d)
	}
	return c, nil
}
