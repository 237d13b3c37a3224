// Package metrics provides the streaming histogram primitive behind the
// search observatory. The paper's quantitative claims (Theorem 3's step
// bounds, the Section 7 message costs) are statements about distributions
// — steps per processor, leaves per step, drain latency after a cutoff —
// and a cumulative counter collapses every such quantity to a mean. A
// Histogram keeps the whole shape at a fixed, tiny cost.
//
// The design mirrors the telemetry layer's counter discipline:
//
//   - Fixed log₂ bucketing: bucket 0 holds observations ≤ 1, bucket i
//     (i ≥ 1) holds observations in (2^(i-1), 2^i]. 64 buckets cover the
//     whole non-negative int64 range, so Observe never allocates, never
//     rebalances and never locks — it is two atomic adds and a max update.
//   - Snapshot is race-clean at any time: bucket counts only grow, so a
//     mid-run snapshot is a momentary view whose total count is monotone
//     across successive snapshots.
//   - Quantiles (p50/p95/p99/...) are extracted from a snapshot by
//     cumulative walk with linear interpolation inside the bucket; the
//     error is bounded by the bucket width (a factor of 2), which is the
//     right resolution for latencies spanning nanoseconds to seconds.
//
// Histograms are embedded per telemetry shard (single writer), so the
// atomics exist only to make concurrent snapshots clean under the race
// detector — increments never contend.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count: bucket 0 plus one bucket per
// power of two up to 2^63, covering every non-negative int64.
const NumBuckets = 64

// Histogram is a lock-free fixed-bucket log₂ histogram. The zero value is
// ready to use. Observe is safe from any goroutine (the owning shard's
// writer in practice); Snapshot is safe concurrently with Observe.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketOf maps an observation to its bucket: 0 for v ≤ 1, else the i
// with v in (2^(i-1), 2^i].
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// BucketUpper returns the inclusive upper bound of bucket i (2^i; 1 for
// bucket 0; MaxInt64 for the top bucket, whose nominal bound 2^63 is not
// representable). It is the `le` value of the Prometheus exposition.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Observe records one value. Negative values clamp into bucket 0 with a
// contribution of 0 to the sum (latencies and counts are never negative;
// the clamp keeps a clock anomaly from corrupting the sum).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// HistSnapshot is a plain (non-atomic) image of a Histogram, the unit of
// aggregation and quantile extraction.
type HistSnapshot struct {
	Buckets [NumBuckets]int64 `json:"-"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Max     int64             `json:"max"`
}

// Snapshot copies the histogram. Bucket counts are read before sum and
// max, so a concurrent snapshot's Count is monotone and never exceeds the
// number of completed Observe calls.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Merge folds o into s (buckets, count and sum add; max takes the max).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Mean returns the sample mean (0 for an empty histogram).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) by walking
// the cumulative bucket counts and interpolating linearly inside the
// bucket that crosses the target rank. NaN for an empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lo, hi := float64(0), float64(BucketUpper(i))
			if i > 0 {
				lo = float64(BucketUpper(i - 1))
			}
			// Never report beyond the observed maximum: the top bucket's
			// upper bound can be far above it.
			if float64(s.Max) < hi && float64(s.Max) > lo {
				hi = float64(s.Max)
			}
			frac := (target - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return float64(s.Max)
}

// P50, P95 and P99 are the quantiles the reports publish.
func (s HistSnapshot) P50() float64 { return s.Quantile(0.50) }
func (s HistSnapshot) P95() float64 { return s.Quantile(0.95) }
func (s HistSnapshot) P99() float64 { return s.Quantile(0.99) }

// WriteProm writes s as the sample lines of one Prometheus histogram
// series: cumulative `le` buckets ascending up to the highest populated
// one (empty trailing buckets carry no information), the mandatory +Inf
// bucket, then _sum and _count. label is "" for an unlabelled family or
// one `key="value"` pair, which every sample line of the series carries.
func (s HistSnapshot) WriteProm(w io.Writer, name, label string) error {
	open, tag := "{", ""
	if label != "" {
		open, tag = "{"+label+",", "{"+label+"}"
	}
	hi := -1
	for i, c := range s.Buckets {
		if c > 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"%d\"} %d\n", name, open, BucketUpper(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, s.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", name, tag, s.Sum, name, tag, s.Count)
	return err
}
