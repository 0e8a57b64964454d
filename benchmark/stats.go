package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count). It returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spread
// this program prints is the spread the acceptance procedure computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// iqrShare is the interquartile distance as a share of the median.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailLadder lists the percentiles a latency tail may be reported at.
var tailLadder = []float64{99, 95, 90, 75, 50}

// supportedTail returns the highest percentile of tailLadder that still
// has at least ten samples beyond it in a sample of n — the rule that
// keeps a reported tail from being one or two outliers. With fewer than
// twenty samples even the median is not supported; it is returned anyway
// and the caller prints the sample count beside it.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 1000 { // n*(1-p/100) >= 10, without the rounding
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// histPercentile is the nearest-rank percentile of an integer histogram
// (hist[v] = number of samples with value v).
func histPercentile(hist []uint64, p float64) uint64 {
	var total uint64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for v, c := range hist {
		seen += c
		if seen >= rank {
			return uint64(v)
		}
	}
	return uint64(len(hist) - 1)
}

// durationsMicros converts op latencies to microseconds, ascending.
func durationsMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// spinCalibration times a fixed arithmetic loop. The figure is recorded
// beside results as context for the reader (is this box the same speed
// as the one the baseline came from?); it never normalises a metric.
func spinCalibration() float64 {
	best := math.MaxFloat64
	for try := 0; try < 5; try++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		if d := float64(time.Since(t0).Nanoseconds()) / 20e6; d < best {
			best = d
		}
	}
	return best
}

var spinSink uint64
