package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (the "R-7" definition). xs need not be sorted; it is
// not modified. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return math.Inf(1)
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailQuantile picks the highest of p90, p99 and p99.9 that has at least
// ten samples beyond it, the headline tail for n samples. ok is false
// when even p90 has fewer than ten (n < 100).
func tailQuantile(n int) (q float64, ok bool) {
	best, found := 0.0, false
	for _, c := range []float64{0.90, 0.99, 0.999} {
		if float64(n)*(1-c) >= 10-1e-9 { // tolerate 1-0.9 rounding below 0.1
			best, found = c, true
		}
	}
	return best, found
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a count ratio over no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
