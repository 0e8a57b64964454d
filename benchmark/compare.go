package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// inexactOn lists the exact metrics that are not exact on one workload:
// on admd_mixed two clients race into the service's ticks, and an open
// that shares a tick with another takes longer to settle.
var inexactOn = map[string]map[string]bool{
	"admd_mixed": {"setup_cycles_mean": true},
}

func loadSummary(path string) (*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints, for every (workload, metric), B's value as a
// ratio of A's with its base, flags end-to-end metrics that worsened
// beyond their bound and exact metrics that differ at all, and returns
// 1 if anything was flagged. It is how "two sets of runs of one commit
// agree" is checked today and how a change is set against its parent
// tomorrow.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sums [2]*summary
	for i, path := range []string{pathA, pathB} {
		s, err := loadSummary(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		sums[i] = s
	}
	return compareSummaries(sums[0], sums[1], stdout)
}

func compareSummaries(a, b *summary, w io.Writer) int {
	ctx := func(tag string, c hostContext) {
		fmt.Fprintf(w, "%s: rev %s  nproc %d  GOMAXPROCS %s  %s  spin %.3f ns/iter  seed %d  seconds %g  %s\n",
			tag, c.GitRev, c.NProc, c.GOMAXPROCS, c.GoVersion, c.SpinNS, c.Seed, c.Seconds, c.When)
	}
	ctx("A", a.Context)
	ctx("B", b.Context)
	byName := map[string]workloadSummary{}
	for _, ws := range b.Workloads {
		byName[ws.Name] = ws
	}
	flagged := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%s: missing from B  FLAG\n", wa.Name)
			flagged++
			continue
		}
		fmt.Fprintf(w, "== %s\n", wa.Name)
		if wb.Failed != 0 || !wb.Correct {
			fmt.Fprintf(w, "   B failed %d of %d operations  FLAG\n", wb.Failed, wb.Attempted)
			flagged++
		}
		row := func(d metricDef, va, vb metricValue, bounded bool) {
			ratio := "n/a"
			if va.Value != 0 {
				ratio = fmt.Sprintf("%.4f", vb.Value/va.Value)
			}
			verdict := ""
			switch {
			case d.Exact && !inexactOn[wa.Name][d.Name]:
				if va.Value != vb.Value {
					verdict = "FLAG exact metric differs"
				}
			case bounded:
				worse := vb.Value/va.Value - 1
				if d.Better == "higher" {
					worse = 1 - vb.Value/va.Value
				}
				if worse > d.Bound {
					verdict = fmt.Sprintf("FLAG worse by %.1f%%, bound %.0f%%", 100*worse, 100*d.Bound)
				}
			}
			if verdict != "" {
				flagged++
			}
			fmt.Fprintf(w, "   %-34s B/A %-8s (A %.6g  B %.6g %s)  %s\n", d.Name, ratio, va.Value, vb.Value, va.Unit, verdict)
		}
		for _, d := range endToEnd {
			row(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], true)
		}
		for _, d := range perLayer {
			row(d, wa.PerLayer[d.Name], wb.PerLayer[d.Name], false)
		}
	}
	if flagged > 0 {
		fmt.Fprintf(w, "%d flagged\n", flagged)
		return 1
	}
	fmt.Fprintln(w, "agree: every end-to-end metric within its bound, every exact metric identical")
	return 0
}
