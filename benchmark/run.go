package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// refReps is the length of the reference section: the first refReps
// timed repetitions. Host-time metrics use every repetition a run had
// time for; simulated statistics and peak memory are taken at the end
// of the reference section, so they depend on the seed and the frozen
// sizes only, never on how fast the host happened to be.
const (
	refReps      = 10
	smokeRefReps = 2
	// maxReps bounds the pre-generated input streams.
	maxReps = 200
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	// Seconds is how long the timed section measures: repetitions of a
	// frozen amount of work run until it has elapsed, and never fewer
	// than the reference section.
	Seconds float64
	// Trace selects the traced run (spans on, per-layer ladder).
	Trace bool
	// Smoke shrinks every size to a functional check for go test.
	Smoke bool
	// TmpDir is where admd_mixed keeps its journal and snapshot.
	TmpDir string
	// AccurateOnly disables fast-forward on torus16_duty; the test
	// that compares it with the cycle-accurate reference sets it.
	AccurateOnly bool
}

func (c runConfig) refReps() int {
	if c.Smoke {
		return smokeRefReps
	}
	return refReps
}

// setups is how many times a workload is set up: n in a measured run
// (setup_s is their median), once when set-up time is not reported.
func (c runConfig) setups(n int) int {
	if c.Smoke || c.Trace {
		return 1
	}
	return n
}

// pick returns full, or smoke under -smoke.
func (c runConfig) pick(full, smoke int) int {
	if c.Smoke {
		return smoke
	}
	return full
}

// simStats are the simulated (cycle-domain) statistics of a run, taken
// at the end of the reference section. They are exact: the same seed
// on the same model gives the same values on any host.
type simStats struct {
	Cycles          uint64  `json:"cycles"`
	SkippedCycles   uint64  `json:"skipped_cycles"`
	DeliveredWords  uint64  `json:"delivered_words"`
	SinkFingerprint string  `json:"sink_fingerprint"`
	WordLatP99      uint64  `json:"word_latency_cycles_p99"`
	WordLatMax      uint64  `json:"word_latency_cycles_max"`
	WordLatMean     float64 `json:"word_latency_cycles_mean"`
	WordLatBound    uint64  `json:"word_latency_bound_cycles"`
	OpensAttempted  uint64  `json:"opens_attempted"`
	OpensAccepted   uint64  `json:"opens_accepted"`
	SetupCyclesMean float64 `json:"setup_cycles_mean"`
	StreamHash      string  `json:"stream_hash"`
	AllocFP         string  `json:"alloc_fingerprint"`
}

func (s simStats) acceptRatio() float64 {
	if s.OpensAttempted == 0 {
		return 0
	}
	return float64(s.OpensAccepted) / float64(s.OpensAttempted)
}

// hostStats are Go runtime deltas over the whole timed section.
type hostStats struct {
	Mallocs   uint64
	Bytes     uint64
	GCPauseNs uint64
	Cycles    uint64 // simulated cycles of the timed section
	Ops       uint64
}

// compCounts is how many routers and NIs carried traffic in a workload;
// the attribution rungs multiply them by the standalone component costs.
type compCounts struct {
	Routers, LoadedRouters int
	NIs, LoadedNIs         int
}

// measured is everything one run of one workload produced.
type measured struct {
	SetupS   []float64       // seconds per set-up repetition
	RepWall  []float64       // seconds per timed repetition
	RepCyc   []float64       // simulated cycles per timed repetition
	RepOps   []float64       // ops per timed repetition
	RepSpans []bool          // traced run: spans were on in this repetition
	OpLat    []time.Duration // every op of the timed section
	OpName   string          // what one op is on this workload
	PeakRSS  float64         // MB, VmHWM at the end of the reference section
	Sim      simStats
	Host     hostStats
	Counts   compCounts
	// Totals for workloads whose simulated cycles cannot be read per
	// repetition (admd_mixed: the service owns its platform).
	TotalCycles uint64
	TotalWall   float64

	Attempted uint64
	Failed    uint64
	Failures  []string
}

// fail counts n failed operations and keeps the first few reasons.
func (m *measured) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	m.Failed += n
	if len(m.Failures) < 8 {
		m.Failures = append(m.Failures, fmt.Sprintf(format, args...))
	}
}

// repLoop runs rep(i, spansOn) for at least the reference section and
// then until the time box closes, calling atRef once when the reference
// section ends. In a traced run odd repetitions run with spans off, so
// one process yields both sides of the tracing-overhead ratio.
func repLoop(cfg runConfig, tr *tracer, m *measured, rep func(i int) (cycles, ops uint64), atRef func()) {
	box := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		// The traced run also climbs the whole layer ladder; half the
		// box keeps it inside the same per-run budget.
		box /= 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < maxReps; i++ {
		if i >= cfg.refReps() && (cfg.Smoke || time.Since(start) >= box) {
			break
		}
		on := i%2 == 0
		tr.enable(on)
		id := tr.begin("rep", -1, uint64(i))
		t0 := time.Now()
		cycles, ops := rep(i)
		wall := time.Since(t0).Seconds()
		tr.end(id)
		m.RepWall = append(m.RepWall, wall)
		m.RepCyc = append(m.RepCyc, float64(cycles))
		m.RepOps = append(m.RepOps, float64(ops))
		m.RepSpans = append(m.RepSpans, on && tr != nil)
		m.Host.Cycles += cycles
		m.Host.Ops += ops
		if i == cfg.refReps()-1 {
			atRef()
			m.PeakRSS = peakRSSMB()
		}
	}
	tr.enable(true)
	runtime.ReadMemStats(&ms1)
	m.Host.Mallocs = ms1.Mallocs - ms0.Mallocs
	m.Host.Bytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.Host.GCPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
}

// timeSetups runs build the given number of times, timing each, and
// returns the last instance; earlier ones are released before the next
// is built so peak memory reflects one live instance.
func timeSetups[T any](m *measured, n int, build func() (T, error), release func(T)) (T, error) {
	var inst T
	for i := 0; i < n; i++ {
		if i > 0 {
			release(inst)
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		inst, err = build()
		if err != nil {
			return inst, err
		}
		m.SetupS = append(m.SetupS, time.Since(t0).Seconds())
	}
	return inst, nil
}

// peakRSSMB reads this process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
