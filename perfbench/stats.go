package main

import (
	"sort"
	"time"
)

// rankOf is the 1-based nearest-rank position of the pct-th percentile
// among n samples: the smallest rank with at least pct% of the samples
// at or below it. Integer arithmetic keeps the thresholds exact.
func rankOf(n, pct int) int {
	k := (pct*n + 99) / 100
	return max(1, min(k, n))
}

// beyond counts the samples strictly past the pct-th percentile.
func beyond(n, pct int) int { return n - rankOf(n, pct) }

// pct returns the nearest-rank pct-th percentile of xs (0 when empty).
func pct(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankOf(len(s), p)-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs, averaging the two middle samples of an
// even count (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples a tail percentile must leave past it to
// be reported.
const minBeyond = 10

// tailPcts are the tail candidates, highest first.
var tailPcts = []int{99, 90, 75, 50}

// tail is a latency tail: the highest of p99/p90/p75/p50 that still has
// at least minBeyond samples beyond it, naming the percentile used and
// the sample count. With fewer than 20 samples no candidate qualifies
// and the tail falls back to the median.
type tail struct {
	Value float64
	Pct   int
	N     int
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	for _, p := range tailPcts {
		if beyond(n, p) >= minBeyond {
			return tail{Value: s[rankOf(n, p)-1], Pct: p, N: n}
		}
	}
	return tail{Value: s[rankOf(n, 50)-1], Pct: 50, N: n}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0/0 as 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
